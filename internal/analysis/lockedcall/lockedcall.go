// Package lockedcall enforces the registry's locking discipline: the
// state RWMutex (`mu`) guards the maps every serving request reads, so
// nothing slow or blocking may run while it is held — no Store I/O
// (disk/object-store writes), no blocking channel sends, no sleeping.
// The sanctioned pattern (see Registry.persistModel/persistManifest) is
// snapshot-under-lock, write-after; a DEDICATED plain sync.Mutex like
// storeMu that exists to serialize I/O is exempt by design — the
// analyzer only tracks RWMutexes, which mark hot read paths.
//
// In internal/cluster the discipline tightens: the cluster mutex guards
// the ring and peer table every routing decision reads, so network I/O
// (http.Get and friends, http.Client methods, net.Dial*) is forbidden
// under ANY mutex there, plain sync.Mutex included — a probe holding
// the lock across a dial to a dead peer stalls every request router for
// the full timeout. The sanctioned pattern (see Cluster.tick) is
// snapshot-under-lock, probe-without-lock, apply-under-lock.
//
// internal/xai (the explanation-cache plane, internal/xai/xcache) gets
// the same plain-mutex treatment: the cache's shard mutexes sit on the
// hit path of every explain request, so tier-2 Store I/O under a shard
// lock turns a blob-store hiccup into a serving stall. The sanctioned
// pattern (see Cache.flight/tier2) is lookup-under-lock, fetch/persist
// with no lock held, insert-under-lock.
package lockedcall

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nfvxai/internal/analysis"
)

// Analyzer flags blocking work while a registry state RWMutex — or, in
// internal/cluster, any mutex — is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockedcall",
	Doc: "no Store I/O, network I/O, blocking channel sends or sleeps while a state " +
		"mutex is held: snapshot under the lock, do the slow work after (stale-manifest/probe-stall class)",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	// "internal/xai", not bare "xai": the module root is nfvxai, so a bare
	// fragment would scope every package in the module.
	if !pass.PathMatches("registry", "cluster", "internal/xai") {
		return nil, nil
	}
	// The cluster's routing lock and the explanation cache's shard locks
	// are hotter than the registry's state lock: every proxied request
	// (resp. every cache hit) takes one, so even a plain sync.Mutex must
	// never be held across a dial or a Store round trip.
	trackPlain := pass.PathMatches("cluster", "internal/xai")
	for _, fn := range pass.FuncDecls() {
		checkFunc(pass, fn, trackPlain)
	}
	return nil, nil
}

// lockEvent is one Lock/RLock/Unlock/RUnlock call on an RWMutex-typed
// expression, keyed by the receiver's printed form ("r.mu").
type lockEvent struct {
	pos token.Pos
	key string
	// delta: +1 acquire, -1 release. deferUntilEnd marks `defer x.Unlock()`,
	// which keeps the mutex held for the rest of the function.
	delta          int
	deferUntilEnd  bool
	condReleaseRet bool // release inside a block that returns (early-exit path)
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, trackPlain bool) {
	var events []lockEvent

	// Collect lock events, noting defer and early-return releases.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false // closures run later, under their own discipline
		case *ast.DeferStmt:
			if key, delta := mutexOp(pass, st.Call, trackPlain); delta < 0 {
				events = append(events, lockEvent{pos: st.Pos(), key: key, delta: delta, deferUntilEnd: true})
			}
			return false
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if key, delta := mutexOp(pass, call, trackPlain); delta != 0 {
					events = append(events, lockEvent{pos: st.Pos(), key: key, delta: delta})
				}
			}
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	// Mark releases that sit in an early-exit block (`if … { mu.Unlock();
	// return err }`): on the fall-through path the mutex is still held, so
	// a linear scan must not treat them as releases.
	markEarlyExitReleases(pass, fn.Body, events)

	// Flag blocking ops at positions where some RWMutex is held.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch st := n.(type) {
		case *ast.SendStmt:
			if heldAt(events, st.Pos()) != "" && !inSelectWithDefault(fn.Body, st) {
				pass.Reportf(st.Pos(),
					"blocking channel send while %s is held; a slow receiver stalls every reader of the registry state", heldAt(events, st.Pos()))
			}
		case *ast.CallExpr:
			key := heldAt(events, st.Pos())
			if key == "" {
				return true
			}
			sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pass.PkgFuncCall(st, "time", "Sleep") {
				pass.Reportf(st.Pos(), "time.Sleep while %s is held stalls every reader of the registry state", key)
				return true
			}
			if isStoreMethod(pass, sel) {
				pass.Reportf(st.Pos(),
					"Store I/O (%s) while %s is held; snapshot under the lock and write after it is released (stale-manifest class)", sel.Sel.Name, key)
			}
			if isNetCall(pass, sel) {
				pass.Reportf(st.Pos(),
					"network I/O (%s) while %s is held; snapshot under the lock, dial after it is released (probe-stall class)", sel.Sel.Name, key)
			}
		}
		return true
	})
}

// isNetCall reports whether sel is an HTTP or dial call: the package
// functions http.Get/Post/PostForm/Head, any method on an http.Client,
// or net.Dial / net.DialTimeout / net.Dial{TCP,UDP,IP,Unix}.
func isNetCall(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	switch pass.SelectorPkg(sel) {
	case "net/http":
		switch sel.Sel.Name {
		case "Get", "Post", "PostForm", "Head":
			return true
		}
		return false
	case "net":
		return strings.HasPrefix(sel.Sel.Name, "Dial")
	}
	if named := pass.ReceiverNamed(sel); named != nil {
		o := named.Obj()
		return o.Name() == "Client" && o.Pkg() != nil && o.Pkg().Path() == "net/http"
	}
	return false
}

// heldAt returns the printed name of an RWMutex held at pos, or "".
// Deferred and early-exit releases never decrement the balance: a
// `defer Unlock` holds to function end, and an `if … { Unlock(); return }`
// leaves the fall-through path locked.
func heldAt(events []lockEvent, pos token.Pos) string {
	held := map[string]int{}
	for _, e := range events {
		if e.pos >= pos {
			break
		}
		if e.deferUntilEnd || e.condReleaseRet {
			continue
		}
		held[e.key] += e.delta
	}
	for k, n := range held {
		if n > 0 {
			return k
		}
	}
	return ""
}

// mutexOp classifies call as a mutex Lock/RLock (+1) or Unlock/RUnlock
// (-1) and returns the receiver's printed key. Plain sync.Mutex is
// tracked only when trackPlain (cluster scope); elsewhere a dedicated
// I/O-serializing Mutex is the sanctioned pattern.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr, trackPlain bool) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	var delta int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return "", 0
	}
	if !isMutex(pass.TypesInfo.Types[sel.X].Type, trackPlain) {
		return "", 0
	}
	return types.ExprString(sel.X), delta
}

func isMutex(t types.Type, trackPlain bool) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != "sync" {
		return false
	}
	return o.Name() == "RWMutex" || (trackPlain && o.Name() == "Mutex")
}

// isStoreMethod reports whether sel calls a method on a value whose
// static type (or pointed-to type) is named Store: the registry's
// persistence plane (a struct) or the explanation cache's tier-2
// backend (an interface).
func isStoreMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if pass.SelectorPkg(sel) != "" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Store"
}

// markEarlyExitReleases sets condReleaseRet on release events whose
// enclosing block ends in a return/panic — `if bad { mu.Unlock(); return }`.
func markEarlyExitReleases(pass *analysis.Pass, body *ast.BlockStmt, events []lockEvent) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, blk := range []*ast.BlockStmt{ifst.Body, elseBlock(ifst)} {
			if blk == nil || len(blk.List) == 0 {
				continue
			}
			if !terminates(blk.List[len(blk.List)-1]) {
				continue
			}
			for i := range events {
				e := &events[i]
				if e.delta < 0 && !e.deferUntilEnd && e.pos >= blk.Pos() && e.pos <= blk.End() {
					e.condReleaseRet = true
				}
			}
		}
		return true
	})
}

func elseBlock(ifst *ast.IfStmt) *ast.BlockStmt {
	if b, ok := ifst.Else.(*ast.BlockStmt); ok {
		return b
	}
	return nil
}

func terminates(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// inSelectWithDefault reports whether send is a select case in a select
// that has a default branch (a non-blocking send).
func inSelectWithDefault(body *ast.BlockStmt, send *ast.SendStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || found {
			return !found
		}
		hasDefault, hasSend := false, false
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			} else if s, ok := cc.Comm.(*ast.SendStmt); ok && s == send {
				hasSend = true
			}
		}
		if hasDefault && hasSend {
			found = true
		}
		return !found
	})
	return found
}
