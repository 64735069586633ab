package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// forbiddenTimeFuncs are the package time functions that read or depend on
// the wall clock. Referencing any of them from a trial-path package makes
// results depend on when (or how fast) the run executed — the exact
// dependence the determinism contract forbids.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true, "Sleep": true,
}

// forbiddenRandFuncs are the math/rand (and math/rand/v2) top-level
// functions that draw from the process-global source. Trial code must draw
// from an injected, seeded stream (see sim.Config.Seed and Scratch.Rand) so
// every trial has its own deterministic stream; the global source is
// shared, seeded nondeterministically, and serializes goroutines on one
// lock.
var forbiddenRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"IntN": true, "Uint32": true, "Uint64": true, "Uint64N": true,
	"UintN": true, "Uint": true, "N": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// NewNoDeterminism builds the nodeterminism pass: within the configured
// packages, forbid wall-clock reads (time.Now, time.Since, timers) and
// global math/rand draws. Randomness must flow through an injected
// rand.Source; time must come from the simulated timebase. Files on the
// allowlist (observability code measuring real wall time) are the declared
// exceptions.
func NewNoDeterminism(cfg NoDeterminismConfig) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "nodeterminism",
		Doc:  "forbid wall-clock and global-RNG use in trial-path packages",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !inScope(cfg.Packages, pass.Pkg.Path()) {
			return nil
		}
		for _, file := range pass.Files {
			filename := pass.Fset.Position(file.Pos()).Filename
			if fileAllowed(cfg.AllowFiles, filename) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				// Only package-level functions: methods on time.Timer or
				// rand.Rand values are fine — a *rand.Rand is exactly the
				// injected-stream pattern the contract wants.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if forbiddenTimeFuncs[fn.Name()] {
						pass.Reportf(sel.Pos(),
							"wall-clock call time.%s in deterministic trial path (inject simulated time, or allowlist observability files in ndlint config)",
							fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if forbiddenRandFuncs[fn.Name()] {
						pass.Reportf(sel.Pos(),
							"global RNG call rand.%s in deterministic trial path (draw from an injected rand.Source instead)",
							fn.Name())
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}
