package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// lockdisciplineRule enforces the project's mutex annotations. A struct
// field whose doc or line comment says "guarded by <mu>" must only be
// touched with <mu> held: within each function the rule demands a
// positionally preceding <base>.<mu>.Lock()/RLock() with no live Unlock in
// between, unless the function declares that its caller holds the lock — by
// the *Locked name suffix or a "Caller holds x.mu" doc comment, both
// established conventions in this codebase. Two more lock bugs ride along:
// a Lock followed by a return path with no Unlock (and no deferred Unlock),
// and a receiver or parameter that copies a mutex-bearing struct by value.
//
// The analysis is intraprocedural and syntactic over the type-checked AST —
// it reasons about source order and block structure, not full control flow.
// Function literals are separate units (lock state does not follow a
// goroutine or deferred closure), and accesses are only checked when the
// base is a receiver or parameter: a value still private to its constructor
// cannot race.
var lockdisciplineRule = Rule{
	Name: "lockdiscipline",
	Doc:  "fields annotated 'guarded by mu' are only accessed with mu held; no early return while locked; no by-value mutex copies",
	Run:  runLockdiscipline,
}

var (
	guardedRe     = regexp.MustCompile(`guarded by (\w+)`)
	callerHoldsRe = regexp.MustCompile(`(?i)\bcallers?\s+(?:must\s+)?holds?\b`)
)

// lockEvent is one mutex operation or guarded-field access, positioned in
// source order within a unit.
type lockEvent struct {
	pos   token.Pos
	base  string // receiver/parameter identifier ("c" in c.mu.Lock())
	mutex string // mutex field name ("mu")
}

type guardedAccess struct {
	pos   token.Pos
	base  string
	mutex string
	field string
}

// unitEvents is everything lock-relevant inside one function body.
type unitEvents struct {
	locks, unlocks, deferUnlocks []lockEvent
	accesses                     []guardedAccess
	returns                      []token.Pos
	blocks                       []blockSpan
}

// blockSpan is one statement-list scope (block, case clause, comm clause).
type blockSpan struct {
	pos, end token.Pos
	stmts    []ast.Stmt
}

func (b blockSpan) contains(p token.Pos) bool { return b.pos <= p && p < b.end }

// terminatesAfter reports whether the block's own statement list reaches a
// return, branch, or panic after pos — i.e. the path through this block
// never rejoins the surrounding code.
func (b blockSpan) terminatesAfter(pos token.Pos) bool {
	for _, s := range b.stmts {
		if s.Pos() <= pos {
			continue
		}
		switch st := s.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return true
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}

func runLockdiscipline(pass *Pass) {
	guards := collectGuards(pass)
	for _, file := range pass.Pkg.Files {
		checkMutexCopies(pass, file)
		if len(guards) == 0 {
			// Still check early-return lock leaks: they need no annotations.
			for _, unit := range funcUnits(file) {
				ev := collectUnitEvents(pass, unit, guards)
				checkLockLeaks(pass, ev)
			}
			continue
		}
		for _, unit := range funcUnits(file) {
			ev := collectUnitEvents(pass, unit, guards)
			checkLockLeaks(pass, ev)
			if unitCallerHoldsLock(unit) {
				continue
			}
			checkAccesses(pass, ev)
		}
	}
}

// unitCallerHoldsLock reports the two conventions that move the locking
// obligation to the caller: a *Locked name suffix, or a doc comment of the
// form "Caller holds c.mu."
func unitCallerHoldsLock(u funcUnit) bool {
	if len(u.name) > len("Locked") && u.name[len(u.name)-len("Locked"):] == "Locked" {
		return true
	}
	return u.doc != "" && callerHoldsRe.MatchString(u.doc)
}

// collectGuards maps each annotated field object to the mutex field name
// guarding it, validating that the named mutex exists in the same struct.
func collectGuards(pass *Pass) map[*types.Var]string {
	guards := make(map[*types.Var]string)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				text := ""
				if f.Doc != nil {
					text += f.Doc.Text()
				}
				if f.Comment != nil {
					text += f.Comment.Text()
				}
				m := guardedRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				if !fieldNames[m[1]] {
					pass.Reportf(f.Pos(), "guarded-by annotation names %q, which is not a field of this struct", m[1])
					continue
				}
				for _, name := range f.Names {
					if v, ok := pass.Pkg.Info.Defs[name].(*types.Var); ok {
						guards[v] = m[1]
					}
				}
			}
			return true
		})
	}
	return guards
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkMutexCopies flags by-value receivers and parameters of struct types
// that directly contain a sync.Mutex or sync.RWMutex.
func checkMutexCopies(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		check := func(fl *ast.FieldList, kind string) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				tv, ok := pass.Pkg.Info.Types[f.Type]
				if !ok || isPointer(tv.Type) {
					continue
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if isMutexType(st.Field(i).Type()) {
						pass.Reportf(f.Type.Pos(),
							"%s of %s copies %s by value, including its mutex %s; use a pointer",
							kind, fd.Name.Name, typeString(tv.Type), st.Field(i).Name())
						break
					}
				}
			}
		}
		check(fd.Recv, "receiver")
		check(fd.Type.Params, "parameter")
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// collectUnitEvents gathers, in source order, the unit's mutex operations,
// guarded-field accesses, returns, and block scopes. Nested function
// literals are excluded — they are their own units.
func collectUnitEvents(pass *Pass, u funcUnit, guards map[*types.Var]string) unitEvents {
	info := pass.Pkg.Info
	var ev unitEvents
	ev.blocks = append(ev.blocks, blockSpan{pos: u.body.Pos(), end: u.body.End(), stmts: u.body.List})

	inspectSkipFuncLits(u.body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.BlockStmt:
			ev.blocks = append(ev.blocks, blockSpan{pos: node.Pos(), end: node.End(), stmts: node.List})
		case *ast.CaseClause:
			ev.blocks = append(ev.blocks, blockSpan{pos: node.Pos(), end: node.End(), stmts: node.Body})
		case *ast.CommClause:
			ev.blocks = append(ev.blocks, blockSpan{pos: node.Pos(), end: node.End(), stmts: node.Body})
		case *ast.ReturnStmt:
			ev.returns = append(ev.returns, node.Pos())
		case *ast.DeferStmt:
			// Any Unlock reachable from the defer (directly or inside a
			// closure) releases at function exit, not here.
			for _, e := range mutexCallsIn(info, node.Call, true) {
				ev.deferUnlocks = append(ev.deferUnlocks, e)
			}
			return false
		case *ast.CallExpr:
			if base, mutex, op, ok := mutexCall(info, node); ok {
				e := lockEvent{pos: node.Pos(), base: base, mutex: mutex}
				if op == "Lock" || op == "RLock" {
					ev.locks = append(ev.locks, e)
				} else {
					ev.unlocks = append(ev.unlocks, e)
				}
				return false
			}
		case *ast.SelectorExpr:
			sel := info.Selections[node]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			mutex, guarded := guards[v]
			if !guarded {
				return true
			}
			base, ok := node.X.(*ast.Ident)
			if !ok || !u.checked[base.Name] {
				return true
			}
			ev.accesses = append(ev.accesses, guardedAccess{
				pos: node.Sel.Pos(), base: base.Name, mutex: mutex, field: v.Name(),
			})
		}
		return true
	})
	sortEvents(&ev)
	return ev
}

func sortEvents(ev *unitEvents) {
	sort.Slice(ev.locks, func(i, j int) bool { return ev.locks[i].pos < ev.locks[j].pos })
	sort.Slice(ev.unlocks, func(i, j int) bool { return ev.unlocks[i].pos < ev.unlocks[j].pos })
	sort.Slice(ev.accesses, func(i, j int) bool { return ev.accesses[i].pos < ev.accesses[j].pos })
}

// mutexCall decodes base.mutex.Lock()-shaped calls, verifying via go/types
// that the inner selector really is a sync mutex.
func mutexCall(info *types.Info, call *ast.CallExpr) (base, mutex, op string, ok bool) {
	outer, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return
	}
	op = outer.Sel.Name
	if op != "Lock" && op != "Unlock" && op != "RLock" && op != "RUnlock" {
		return
	}
	inner, okSel := outer.X.(*ast.SelectorExpr)
	if !okSel {
		return
	}
	baseIdent, okSel := inner.X.(*ast.Ident)
	if !okSel {
		return
	}
	tv, okTv := info.Types[outer.X]
	if !okTv || !isMutexType(tv.Type) {
		return
	}
	return baseIdent.Name, inner.Sel.Name, op, true
}

// mutexCallsIn lists Unlock/RUnlock calls anywhere under n (including inside
// function literals when descend is set) — used for defer subtrees.
func mutexCallsIn(info *types.Info, n ast.Node, descend bool) []lockEvent {
	var out []lockEvent
	ast.Inspect(n, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit && !descend {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if base, mutex, op, ok := mutexCall(info, call); ok && (op == "Unlock" || op == "RUnlock") {
				out = append(out, lockEvent{pos: call.Pos(), base: base, mutex: mutex})
			}
		}
		return true
	})
	return out
}

// innermost returns the smallest recorded block containing pos.
func (ev *unitEvents) innermost(pos token.Pos) blockSpan {
	best := ev.blocks[0]
	for _, b := range ev.blocks[1:] {
		if b.contains(pos) && (b.end-b.pos) < (best.end-best.pos) {
			best = b
		}
	}
	return best
}

func sameLock(a, b lockEvent) bool { return a.base == b.base && a.mutex == b.mutex }

// checkAccesses verifies every guarded access happens under its mutex: a
// preceding Lock on the same base and mutex, with no intervening Unlock that
// is live on the access's path (an Unlock inside an early-exit block that
// returns or branches does not release the fall-through path).
func checkAccesses(pass *Pass, ev unitEvents) {
	for _, a := range ev.accesses {
		key := lockEvent{base: a.base, mutex: a.mutex}
		var last *lockEvent
		for i := range ev.locks {
			if ev.locks[i].pos < a.pos && sameLock(ev.locks[i], key) {
				last = &ev.locks[i]
			}
		}
		if last == nil {
			pass.Reportf(a.pos,
				"%s.%s is guarded by %s but accessed without %s.%s.Lock (no preceding Lock in this function; if the caller locks, name the function *Locked or document \"Caller holds %s.%s\")",
				a.base, a.field, a.mutex, a.base, a.mutex, a.base, a.mutex)
			continue
		}
		for _, u := range ev.unlocks {
			if u.pos <= last.pos || u.pos >= a.pos || !sameLock(u, key) {
				continue
			}
			ub := ev.innermost(u.pos)
			if !ub.contains(a.pos) && ub.terminatesAfter(u.pos) {
				continue // the unlock belongs to an early-exit path
			}
			pass.Reportf(a.pos,
				"%s.%s is guarded by %s but accessed after %s.%s.Unlock (line %d)",
				a.base, a.field, a.mutex, a.base, a.mutex, pass.Pkg.Fset.Position(u.pos).Line)
			break
		}
	}
}

// checkLockLeaks flags Lock calls followed by a return with no Unlock on the
// path and no deferred Unlock — the early-return-skips-Unlock bug that
// deadlocks the next caller.
func checkLockLeaks(pass *Pass, ev unitEvents) {
	for i, l := range ev.locks {
		deferred := false
		for _, d := range ev.deferUnlocks {
			if sameLock(d, l) {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		// The region this Lock is answerable for ends at the next Lock of
		// the same mutex (a later region's returns are its problem).
		regionEnd := token.Pos(1 << 62)
		for _, l2 := range ev.locks[i+1:] {
			if sameLock(l2, l) {
				regionEnd = l2.pos
				break
			}
		}
		for _, r := range ev.returns {
			if r <= l.pos || r >= regionEnd {
				continue
			}
			covered := false
			for _, u := range ev.unlocks {
				if u.pos > l.pos && u.pos <= r && sameLock(u, l) && ev.innermost(u.pos).contains(r) {
					covered = true
					break
				}
			}
			if !covered {
				pass.Reportf(r,
					"return while %s.%s may still be locked (Lock at line %d has no Unlock on this path; unlock before returning or defer the Unlock)",
					l.base, l.mutex, pass.Pkg.Fset.Position(l.pos).Line)
			}
		}
	}
}
