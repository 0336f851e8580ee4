// Package quiescence enforces the snapshot contract of the storage
// and exchange layers (rel/snapshot.go, engine/batchstream.go). Since
// the epoch refactor the law has two halves:
//
//  1. Published snapshots are immutable. A *rel.Snapshot or
//     *shard.Snapshot hands out sealed state — relations, their
//     dictionaries, their translation targets — and nothing obtained
//     from one may ever be mutated: no Relation.Add/AddBatch/Reserve,
//     no Interner.Intern, no IDMap interning into a snapshot
//     dictionary. Interning goes through the epoch writer, before the
//     snapshot is published.
//
//  2. Exchange workers do not intern into shared dictionaries. Worker
//     callbacks of the engine.Executor Stream* family run concurrently
//     with each other (and, in the routed exchanges, with the router),
//     and a rel.Interner is not safe for concurrent mutation — so no
//     worker may intern into any dictionary captured from the
//     enclosing scope. Reading captured dictionaries is legal on every
//     path: under the snapshot contract the dictionaries a worker sees
//     are sealed (the historical routed-exchange read ban is gone);
//     what workers must not do is mutate.
//
// Half 1 is a lexical taint walk per function body: snapshot method
// results (and values derived from them through method chains,
// assignments, rel.Materialized on a snapshot, rel.NewIDMap over a
// snapshot dictionary) are tainted, mutating method calls on tainted
// receivers are flagged, and Clone sanitizes — a cloned relation is
// the caller's to mutate. Half 2 inspects every function-literal
// worker callback passed to a Stream* method and flags interning calls
// — Interner.Intern, IDMap.Intern, Relation.Add/AddBatch, Store.Add,
// setjoin's Dict.Key — whose receiver is captured from the enclosing
// scope. A receiver declared inside the callback (a worker-local
// relation or interner) is private to the worker and exempt. The route
// callback of a routed exchange is exempt by design: it runs on the
// router goroutine, the one place interning during an exchange is
// documented safe (see engine.StreamPartitionedBatches).
package quiescence

import (
	"go/ast"
	"go/types"

	"radiv/internal/analysis"
)

// Analyzer is the quiescence check.
var Analyzer = &analysis.Analyzer{
	Name: "quiescence",
	Doc:  "forbid mutation of published snapshots and interning on captured dictionaries inside engine.Stream* worker callbacks",
	Run:  run,
}

const (
	relPath     = "radiv/internal/rel"
	enginePath  = "radiv/internal/engine"
	setjoinPath = "radiv/internal/setjoin"
	shardPath   = "radiv/internal/shard"
)

// exchangeMethods is the engine.Executor exchange family whose last
// argument is a worker callback.
var exchangeMethods = map[string]bool{
	"StreamPartitionedBatches": true,
	"StreamShardedBatches":     true,
}

func run(pass *analysis.Pass) error {
	storeIface := analysis.NamedInterface(pass, relPath, "Store")
	for _, f := range pass.Files {
		// Half 1: snapshot immutability, one taint walk per function.
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSnapshotMutation(pass, fd.Body)
			}
		}
		// Half 2: worker interning bans.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, recv := analysis.MethodCall(pass, call)
			if sel == nil || recv == nil {
				return true
			}
			if !exchangeMethods[sel.Sel.Name] || !analysis.IsNamed(recv, enginePath, "Executor") {
				return true
			}
			work, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true // a named worker function: outside the lexical contract
			}
			checkWorker(pass, work, storeIface)
			return true
		})
	}
	return nil
}

// checkWorker flags interning on captured receivers anywhere lexically
// inside the worker callback.
func checkWorker(pass *analysis.Pass, work *ast.FuncLit, storeIface *types.Interface) {
	ast.Inspect(work.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, recv := analysis.MethodCall(pass, call)
		if sel == nil || recv == nil {
			return true
		}
		kind := classify(sel.Sel.Name, recv, storeIface)
		if kind == "" {
			return true
		}
		if root := analysis.RootIdent(sel.X); root != nil {
			obj := pass.TypesInfo.Uses[root]
			if obj == nil {
				obj = pass.TypesInfo.Defs[root]
			}
			if analysis.DeclaredWithin(obj, work) {
				return true // worker-local dictionary: private to this goroutine
			}
		}
		pass.Reportf(call.Pos(), "%s inside an exchange worker: workers share it with other goroutines; intern through the epoch writer before the exchange (snapshot contract, see engine.StreamPartitionedBatches)", kind)
		return true
	})
}

// classify returns a description of the hazardous interning call, or
// "" for calls outside the contract.
func classify(name string, recv types.Type, storeIface *types.Interface) string {
	switch name {
	case "Intern":
		if analysis.IsNamed(recv, relPath, "Interner") {
			return "Interner.Intern on a captured dictionary"
		}
		if analysis.IsNamed(recv, relPath, "IDMap") {
			return "IDMap.Intern interning into a captured target dictionary"
		}
	case "Add":
		if analysis.IsNamed(recv, relPath, "Relation") {
			return "Relation.Add interning into a captured relation's dictionary"
		}
		if analysis.Implements(recv, storeIface) {
			return "Store.Add interning into a captured store"
		}
	case "AddBatch":
		if analysis.IsNamed(recv, relPath, "Relation") {
			return "Relation.AddBatch interning into a captured relation's dictionary"
		}
	case "Key":
		if analysis.IsNamed(recv, setjoinPath, "Dict") {
			return "Dict.Key interning into a captured canonical-key dictionary"
		}
	}
	return ""
}

// isSnapshotType reports whether t is one of the published snapshot
// types: rel.Snapshot or shard.Snapshot (possibly behind a pointer).
func isSnapshotType(t types.Type) bool {
	return analysis.IsNamed(t, relPath, "Snapshot") || analysis.IsNamed(t, shardPath, "Snapshot")
}

// snapSink returns a description of a mutating call on a
// snapshot-derived receiver, or "" for reads (which are the point of
// snapshots and always legal).
func snapSink(name string, recv types.Type) string {
	switch name {
	case "Add", "AddBatch", "Reserve":
		if analysis.IsNamed(recv, relPath, "Relation") {
			return "Relation." + name
		}
	case "Intern":
		if analysis.IsNamed(recv, relPath, "Interner") {
			return "Interner.Intern"
		}
		if analysis.IsNamed(recv, relPath, "IDMap") {
			return "IDMap.Intern"
		}
	case "DropBatchCache":
		if analysis.IsNamed(recv, relPath, "Relation") {
			return "Relation.DropBatchCache"
		}
	}
	return ""
}

// checkSnapshotMutation runs the snapshot-immutability taint walk over
// one function body in source order. Taint sources are snapshot method
// results; taint propagates through assignments, method chains (Clone
// excepted — a clone is caller-owned), rel.Materialized on a
// statically snapshot-typed store, rel.NewIDMap over a tainted
// dictionary, and IDColumns' dictionary result. Mutating method calls
// on tainted receivers are flagged. Function literals are walked too:
// a worker closure mutating captured snapshot state is exactly the
// race the contract exists to prevent.
func checkSnapshotMutation(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)

	var exprTaint func(e ast.Expr) bool
	exprTaint = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			return obj != nil && tainted[obj]
		case *ast.TypeAssertExpr:
			return exprTaint(e.X)
		case *ast.CallExpr:
			if sel, recv := analysis.MethodCall(pass, e); sel != nil && recv != nil {
				if isSnapshotType(recv) {
					return true // a snapshot method result is sealed state
				}
				if sel.Sel.Name == "Clone" {
					return false // a clone is the caller's to mutate
				}
				return exprTaint(sel.X) // method chain off tainted state
			}
			if analysis.CalleePkgFunc(pass, e, relPath, "Materialized") && len(e.Args) > 0 {
				return materializedFromSnapshot(pass, e)
			}
			if analysis.CalleePkgFunc(pass, e, relPath, "NewIDMap") && len(e.Args) == 1 {
				return exprTaint(e.Args[0]) // the map interns into its target
			}
			if analysis.CalleePkgFunc(pass, e, relPath, "FreezeDict") {
				return false // the frozen facade has no mutators anyway
			}
		}
		return false
	}

	setTaint := func(lhs ast.Expr, v bool) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil {
			tainted[obj] = v
		}
	}

	handleAssign := func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 && len(lhs) > 1 {
			// Multi-value call: taint flows into the results of the two
			// multi-result sources — rel.Materialized on a snapshot
			// (first result) and IDColumns on a tainted relation (the
			// columns and their dictionary).
			taintAll := false
			taintFirst := false
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				if analysis.CalleePkgFunc(pass, call, relPath, "Materialized") {
					taintFirst = materializedFromSnapshot(pass, call)
				} else if sel, recv := analysis.MethodCall(pass, call); sel != nil && recv != nil && sel.Sel.Name == "IDColumns" {
					taintAll = exprTaint(sel.X)
				}
			}
			setTaint(lhs[0], taintFirst || taintAll)
			for _, l := range lhs[1:] {
				setTaint(l, taintAll)
			}
			return
		}
		for i, l := range lhs {
			if i < len(rhs) {
				setTaint(l, exprTaint(rhs[i]))
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			handleAssign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				handleAssign(lhs, n.Values)
			}
		case *ast.CallExpr:
			sel, recv := analysis.MethodCall(pass, n)
			if sel == nil || recv == nil {
				return true
			}
			if kind := snapSink(sel.Sel.Name, recv); kind != "" && exprTaint(sel.X) {
				pass.Reportf(n.Pos(), "%s mutating a published snapshot: snapshots are immutable; mutate through the epoch writer and Publish (snapshot contract, see rel.Snapshot)", kind)
			}
		}
		return true
	})
}

// materializedFromSnapshot reports whether a rel.Materialized call
// takes a statically snapshot-typed store, in which case its relation
// result aliases sealed snapshot storage (aliased is always true for
// snapshots).
func materializedFromSnapshot(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[ast.Unparen(call.Args[0])]
	return ok && isSnapshotType(tv.Type)
}
