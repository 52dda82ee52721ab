// Package suite registers the kit's analyzers in one place, so the
// oskitcheck driver and the structure tests see the same set.
package suite

import (
	"oskit/internal/analysis"
	"oskit/internal/analysis/comref"
	"oskit/internal/analysis/detsource"
	"oskit/internal/analysis/guarded"
	"oskit/internal/analysis/guidreg"
	"oskit/internal/analysis/lockhook"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		comref.Analyzer,
		lockhook.Analyzer,
		guarded.Analyzer,
		guidreg.Analyzer,
		detsource.Analyzer,
	}
}
