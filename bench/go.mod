module oskit/bench

go 1.24

require oskit v0.0.0

replace oskit => ../
