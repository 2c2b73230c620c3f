// Package poolalloc enforces the kernel-plane allocation invariant from
// the mechanical-sympathy PR: the explainer hot loops (internal/mat,
// internal/xai/shap, internal/xai/lime) run at zero steady-state
// allocations, with every transient drawn from a pooled workspace
// (a sync.Pool buffer) instead of make. A fresh
// float-slice make in those packages is either pool plumbing — a
// get*/put*/new*/release* accessor, or the cap-guarded growth of a
// pooled buffer — or it is a finding: escaping results and genuinely
// cold paths carry a justified //lint:allow poolalloc directive so the
// exception is visible in review.
package poolalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"nfvxai/internal/analysis"
)

// Analyzer flags un-pooled float-slice allocations in the kernel-plane
// hot paths.
var Analyzer = &analysis.Analyzer{
	Name: "poolalloc",
	Doc: "kernel hot paths (internal/mat, internal/xai/shap, internal/xai/lime) must not make float slices: " +
		"draw scratch from pooled workspaces; escaping results need a justified //lint:allow poolalloc",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.PathMatches("internal/mat", "internal/xai/shap", "internal/xai/lime") {
		return nil, nil
	}
	for _, fn := range pass.FuncDecls() {
		if fn.Body == nil || exemptName(fn.Name.Name) {
			continue
		}
		checkFunc(pass, fn)
	}
	return nil, nil
}

// exemptName reports whether the function is pool plumbing by naming
// convention: accessors that hand out or take back pooled storage, and
// constructors, are where the allocations are supposed to live.
func exemptName(name string) bool {
	lower := strings.ToLower(name)
	for _, prefix := range [...]string{"get", "put", "new", "release"} {
		if strings.HasPrefix(lower, prefix) {
			return true
		}
	}
	return false
}

// span is a source range; growth-guard exemption works by position
// containment, since the stdlib walk carries no ancestor path.
type span struct{ lo, hi int }

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	// Pass 1: collect the bodies of if-statements whose condition reads
	// cap(…) — the amortized-growth idiom every pooled buffer uses:
	//
	//	if cap(b.vals) < n { b.vals = make([]float64, n) }
	//
	// A make inside such a body is the pool refilling itself, not a
	// steady-state allocation.
	var guarded []span
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok || !callsCap(ifst.Cond) {
			return true
		}
		guarded = append(guarded, span{int(ifst.Body.Pos()), int(ifst.Body.End())})
		return true
	})

	// Pass 2: flag float-slice makes outside every growth guard.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
			return true
		}
		elem, ok := floatSliceElem(pass, call.Args[0])
		if !ok {
			return true
		}
		pos := int(call.Pos())
		for _, g := range guarded {
			if pos >= g.lo && pos < g.hi {
				return true
			}
		}
		pass.Reportf(call.Pos(),
			"make([]%s, …) on a kernel hot path; use a pooled workspace (a sync.Pool buffer), or justify the escape with //lint:allow poolalloc", elem)
		return true
	})
}

// floatSliceElem reports whether the make type expression is a float
// slice, naming the element type.
func floatSliceElem(pass *analysis.Pass, typeExpr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[typeExpr]
	if !ok || !tv.IsType() {
		return "", false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return "", false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok {
		return "", false
	}
	switch b.Kind() {
	case types.Float64:
		return "float64", true
	case types.Float32:
		return "float32", true
	}
	return "", false
}

// callsCap reports whether the expression contains a call to the cap
// builtin.
func callsCap(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "cap" {
				found = true
			}
		}
		return !found
	})
	return found
}
