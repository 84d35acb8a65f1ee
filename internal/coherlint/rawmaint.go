package coherlint

import (
	"go/ast"
	"path/filepath"
)

// RawMaintenanceAnalyzer enforces rule 5 of the coherence contract: ranged
// cache maintenance is issued by the two publication primitives,
// ds.PublishRange and ds.ReadRange, and by nothing else outside fabric. A
// site neither primitive expresses says why with
// "//flacvet:ignore raw-maintenance <reason>".
var RawMaintenanceAnalyzer = &Analyzer{
	Name: "raw-maintenance",
	Doc:  "bare ranged write-back, invalidate or flush outside fabric and the ds publication primitives",
	Run:  runRawMaintenance,
}

// maintenanceHomes maps each package that may issue ranged maintenance to
// the one file of it that may ("" for all of it): fabric, the ds file that
// holds the primitives, and the fabric experiment, which prices them.
var maintenanceHomes = map[string]string{
	fabricPkgPath:                 "",
	"flacos/internal/flacdk/ds":   "publine.go",
	"flacos/internal/experiments": "fabric.go",
}

func runRawMaintenance(pass *Pass) error {
	home, homed := maintenanceHomes[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if homed && (home == "" || filepath.Base(pass.Fset.Position(f.Pos()).Filename) == home) {
			continue
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			if call, ok := nd.(*ast.CallExpr); ok {
				switch _, name := classifyCall(pass.TypesInfo, call); name {
				case "WriteBackRange", "InvalidateRange", "FlushRange":
					pass.Reportf(call.Pos(), "bare %s: publish a range with ds.PublishRange, read one with ds.ReadRange, or give the reason with //flacvet:ignore raw-maintenance", name)
				}
			}
			return true
		})
	}
	return nil
}
