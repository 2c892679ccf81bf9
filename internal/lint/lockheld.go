package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"lrcdsm/internal/lint/analysis"
)

// LockHeld flags blocking operations executed while a sync.Mutex or
// sync.RWMutex is held — the deadlock shape the live runtime's
// distributed lock forwarding and tree-barrier fan-out make easy to
// introduce: a dispatcher handler that sends (or waits) under Node.mu
// can deadlock against a peer doing the same, and at minimum stalls
// every other goroutine contending for the mutex for a full network
// round trip. The engine's discipline is release-then-send: compute the
// outbound message under the lock, drop the lock, transmit.
//
// Blocking operations are: channel sends and receives, `select`
// statements without a `default` case, ranging over a channel,
// time.Sleep, (*sync.WaitGroup).Wait, (*sync.Cond).Wait outside the
// canonical for-loop idiom, and — matched by name, the way poolsafe
// matches FreeTwin — the project's transport and RPC entry points:
// Send/Recv methods (transport.Transport and its wrappers) and the
// node's rpc/send/trySend/rpcTry helpers.
//
// The analysis is intra-procedural and flow-insensitive across
// branches, like poolsafe: within each straight-line statement sequence
// it tracks receivers of Lock/RLock calls until the matching
// Unlock/RUnlock; branch bodies see a private copy of that state. A
// `defer mu.Unlock()` intentionally does NOT clear the held state — the
// mutex stays held for the rest of the function, so a blocking
// operation after it is still a hold-across-block. Function literals
// are analyzed as their own scope with no held mutexes (a goroutine
// body does not inherit its creator's locks). Intentional holds (a
// condition-variable style wait protocol) carry a
// //dsmlint:ignore lockheld <reason> annotation.
var LockHeld = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "flags blocking operations (channel ops, selects, transport sends, RPC waits) while a mutex is held",
	Run:  runLockHeld,
}

// blockingMethodNames are project call points that block on the network
// or a peer reply, matched by name on any receiver (the live node's
// helpers are unexported, so type identity is not available to fixture
// code; name matching mirrors poolsafe's FreeTwin convention).
var blockingMethodNames = map[string]string{
	"Send":    "transport send",
	"Recv":    "transport receive",
	"rpc":     "blocking RPC",
	"send":    "message send",
	"trySend": "message send",
	"rpcTry":  "RPC reply wait",
}

func runLockHeld(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					ls := &lockScan{pass: pass}
					ls.block(fn.Body.List, newLockState(), false)
				}
				return true // descend: nested literals get their own scope
			case *ast.FuncLit:
				ls := &lockScan{pass: pass}
				ls.block(fn.Body.List, newLockState(), false)
				return true
			}
			return true
		})
	}
	return nil
}

// lockState tracks, per straight-line sequence, which mutexes are held:
// expression key of the receiver -> position of the Lock call.
type lockState struct {
	held map[string]token.Pos
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

// any returns one held mutex (key and Lock position), or "" if none.
// With several held, the earliest-locked is reported for determinism.
func (s *lockState) any() (string, token.Pos) {
	var key string
	var pos token.Pos
	for k, p := range s.held {
		if key == "" || p < pos {
			key, pos = k, p
		}
	}
	return key, pos
}

type lockScan struct {
	pass *analysis.Pass
}

// block walks stmts in order, mutating st. inFor reports whether the
// sequence is (transitively) inside a for/range body — the context in
// which sync.Cond.Wait is the legitimate idiom.
func (p *lockScan) block(stmts []ast.Stmt, st *lockState, inFor bool) {
	for _, stmt := range stmts {
		p.stmt(stmt, st, inFor)
	}
}

func (p *lockScan) stmt(stmt ast.Stmt, st *lockState, inFor bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		p.trackLockCalls(s.X, st)
		p.scanBlocking(s.X, st, inFor)
	case *ast.SendStmt:
		if key, pos := st.any(); key != "" {
			p.pass.Reportf(s.Arrow, "channel send while %s is held (locked at %s)", key, p.pass.Fset.Position(pos))
		}
		p.scanBlocking(s.Value, st, inFor)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			p.scanBlocking(rhs, st, inFor)
		}
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the mutex stays held
		// through the remainder of the body, so held state is untouched.
		// The deferred call itself does not run here either.
	case *ast.GoStmt:
		// The spawned goroutine does not hold this goroutine's locks;
		// its body was analyzed as its own scope.
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			p.scanBlocking(r, st, inFor)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			p.stmt(s.Init, st, inFor)
		}
		p.scanBlocking(s.Cond, st, inFor)
		p.block(s.Body.List, st.clone(), inFor)
		if s.Else != nil {
			p.stmt(s.Else, st.clone(), inFor)
		}
	case *ast.ForStmt:
		sub := st.clone()
		if s.Init != nil {
			p.stmt(s.Init, sub, inFor)
		}
		if s.Cond != nil {
			p.scanBlocking(s.Cond, sub, inFor)
		}
		p.block(s.Body.List, sub, true)
		if s.Post != nil {
			p.stmt(s.Post, sub, true)
		}
	case *ast.RangeStmt:
		if tv, ok := p.pass.TypesInfo.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				if key, pos := st.any(); key != "" {
					p.pass.Reportf(s.For, "range over channel while %s is held (locked at %s)", key, p.pass.Fset.Position(pos))
				}
			}
		}
		p.scanBlocking(s.X, st, inFor)
		p.block(s.Body.List, st.clone(), true)
	case *ast.BlockStmt:
		p.block(s.List, st.clone(), inFor)
	case *ast.SwitchStmt:
		if s.Init != nil {
			p.stmt(s.Init, st, inFor)
		}
		if s.Tag != nil {
			p.scanBlocking(s.Tag, st, inFor)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				p.block(cc.Body, st.clone(), inFor)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				p.block(cc.Body, st.clone(), inFor)
			}
		}
	case *ast.SelectStmt:
		// A select with a default case never blocks; without one it
		// parks the goroutine until a communication is ready.
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if key, pos := st.any(); key != "" {
				p.pass.Reportf(s.Select, "select without default while %s is held (locked at %s)", key, p.pass.Fset.Position(pos))
			}
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				p.block(cc.Body, st.clone(), inFor)
			}
		}
	case *ast.LabeledStmt:
		p.stmt(s.Stmt, st, inFor)
	default:
		if stmt != nil {
			if n, ok := stmt.(ast.Node); ok {
				p.scanBlocking(n, st, inFor)
			}
		}
	}
}

// trackLockCalls updates held state for mu.Lock/RLock/Unlock/RUnlock
// expression statements.
func (p *lockScan) trackLockCalls(e ast.Expr, st *lockState) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	name, recv := mutexMethod(p.pass.TypesInfo, call)
	if recv == "" {
		return
	}
	switch name {
	case "Lock", "RLock":
		st.held[recv] = call.Pos()
	case "Unlock", "RUnlock":
		delete(st.held, recv)
	}
}

// scanBlocking reports blocking operations inside expression n while a
// mutex is held: channel receives, and calls from the blocking set.
func (p *lockScan) scanBlocking(n ast.Node, st *lockState, inFor bool) {
	key, lockPos := st.any()
	if key == "" {
		// Still walk for lock tracking? No: Lock/Unlock only tracked as
		// statements; nothing to do with no mutex held.
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false // its body is a separate scope
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				p.pass.Reportf(x.OpPos, "channel receive while %s is held (locked at %s)", key, p.pass.Fset.Position(lockPos))
			}
		case *ast.CallExpr:
			if what, pos, ok := p.blockingCall(x, inFor); ok {
				p.pass.Reportf(pos, "%s while %s is held (locked at %s)", what, key, p.pass.Fset.Position(lockPos))
			}
		}
		return true
	})
}

// blockingCall classifies a call as blocking: time.Sleep,
// sync.WaitGroup.Wait, sync.Cond.Wait outside a for loop, or a
// name-matched transport/RPC entry point.
func (p *lockScan) blockingCall(call *ast.CallExpr, inFor bool) (string, token.Pos, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", token.NoPos, false
	}
	fn, ok := p.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", token.NoPos, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return "", token.NoPos, false
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
			return "time.Sleep", sel.Pos(), true
		}
		return "", token.NoPos, false
	}
	// Methods: sync.Cond.Wait / sync.WaitGroup.Wait by type, the
	// transport/RPC set by name.
	if fn.Name() == "Wait" {
		switch recvNamed(sig) {
		case "sync.WaitGroup":
			return "sync.WaitGroup.Wait", sel.Pos(), true
		case "sync.Cond":
			if !inFor {
				return "sync.Cond.Wait outside a for loop", sel.Pos(), true
			}
			return "", token.NoPos, false
		}
	}
	if what, ok := blockingMethodNames[fn.Name()]; ok {
		return what + " " + sel.Sel.Name, sel.Pos(), true
	}
	return "", token.NoPos, false
}

// recvNamed returns "pkgpath.TypeName" of a method's receiver type
// (dereferencing a pointer receiver), or "".
func recvNamed(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// mutexMethod reports a sync.Mutex / sync.RWMutex method call: the
// method name and the receiver's expression key ("" if not a mutex
// method or the receiver has no stable key).
func mutexMethod(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	switch recvNamed(sig) {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return "", ""
	}
	key := exprKey(sel.X)
	if key == "" {
		return "", ""
	}
	return fn.Name(), key
}
