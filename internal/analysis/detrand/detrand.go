// Package detrand implements the rmqlint analyzer that keeps
// trajectory-bearing packages deterministic.
//
// The optimizer's differential tests pin whole RMQ trajectories
// bit-identical across implementations (columnar buckets vs the
// Algorithm 3 reference, in-place vs copying climbs, shared vs private
// caches), and every
// kernel rewrite is validated against that discipline. It survives
// only while the packages on the trajectory derive all randomness from
// seeded sources and never let wall-clock time or map iteration order
// influence an ordered result.
//
// A package opts in with //rmq:deterministic in its package doc
// comment. In such packages (non-test files), the analyzer reports
//
//   - time.Now, time.Since, time.Until — wall-clock reads,
//   - package-level math/rand and math/rand/v2 functions (the global,
//     auto-seeded source; seeded *rand.Rand values are fine), and
//   - ranging over a map while appending to a slice or sending on a
//     channel in the loop body — map order leaking into ordered
//     output.
//
// Sites that are genuinely order- or time-insensitive (progress
// timestamps, stats aggregation) carry //rmq:allow-detrand(reason).
package detrand

import (
	"go/ast"
	"go/types"

	"rmq/internal/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock time, global rand and ordered map iteration in //rmq:deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if pass.Ann.PackageAnn("deterministic") == nil {
		return
	}
	info := pass.Pkg.Info
	for i, file := range pass.Pkg.Files {
		if pass.Pkg.Test[i] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, info, n)
			}
			return true
		})
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	callee := analysis.CalleeOf(pass.Pkg.Info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	// Only package-level functions matter: rand methods on a seeded
	// *rand.Rand are deterministic, and time methods operate on values
	// the caller already has.
	if callee.Type().(*types.Signature).Recv() != nil {
		return
	}
	path, name := callee.Pkg().Path(), callee.Name()
	switch path {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			if !pass.Ann.Allowed(call.Pos(), "allow-detrand") {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock in a //rmq:deterministic package", name)
			}
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			// Constructors of seeded sources are the deterministic path.
		default:
			if !pass.Ann.Allowed(call.Pos(), "allow-detrand") {
				pass.Reportf(call.Pos(), "%s.%s uses the global auto-seeded source in a //rmq:deterministic package; use a seeded *rand.Rand", path, name)
			}
		}
	}
}

// checkMapRange flags map iteration whose body feeds ordered output:
// an append or a channel send makes the map's iteration order
// observable downstream.
func checkMapRange(pass *analysis.Pass, info *types.Info, rng *ast.RangeStmt) {
	t := info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					if !pass.Ann.Allowed(rng.Pos(), "allow-detrand") && !pass.Ann.Allowed(n.Pos(), "allow-detrand") {
						pass.Reportf(rng.Pos(), "map iteration order feeds an append; ordered output becomes nondeterministic")
					}
					return false
				}
			}
		case *ast.SendStmt:
			if !pass.Ann.Allowed(rng.Pos(), "allow-detrand") && !pass.Ann.Allowed(n.Pos(), "allow-detrand") {
				pass.Reportf(rng.Pos(), "map iteration order feeds a channel send; ordered output becomes nondeterministic")
			}
			return false
		}
		return true
	})
}
