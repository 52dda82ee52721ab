// oskit-graph renders the paper's Figure 1 for this repository: the
// overall structure of the kit — client OS on top, native and glue
// components beneath it, encapsulated donor-style code shaded at the
// bottom — with each component's dependencies, read from its imports.
//
// Run from the repository root:  go run ./cmd/oskit-graph
package main

import (
	"fmt"
	"os"

	"oskit/internal/core"
	"oskit/internal/structure"
)

func main() {
	edges, err := structure.Edges(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "oskit-graph:", err)
		os.Exit(1)
	}
	core.WriteStructure(os.Stdout, edges)
}
