// Package ctrlflow builds a lightweight statement-level control-flow
// graph over go/ast function bodies — the intra-function dataflow layer
// of phantomlint v2. It answers path questions that syntactic scanning
// cannot: "can this function return without passing statement X?" is
// exactly the shape of the PR 9 checkpoint-failure leak, where one early
// return inside the collect loop skipped the drain that every other path
// performed.
//
// The graph is deliberately small: one node per statement, successor
// edges for if/for/range/switch/select/branch statements, synthetic
// nodes for loop exits (so analyses can distinguish "entered the loop"
// from "ran it to completion" — the difference between touching a drain
// loop and draining), and a synthetic exit node for falling off the end
// of the function. goto bails out: the graph marks itself Unsupported
// and path analyses decline rather than guess.
package ctrlflow

import (
	"go/ast"
)

// Node is one CFG vertex.
type Node struct {
	// Stmt is the statement this node represents; nil for synthetic
	// nodes (Exit, loop exits).
	Stmt ast.Stmt
	// LoopExit, when non-nil, marks a synthetic node on the normal-exit
	// edge of the named loop statement: control reaches it only by the
	// loop condition failing, the range ending, or a break.
	LoopExit ast.Stmt
	// Return marks return statements and the synthetic function exit.
	Return bool
	// Succs are the possible successor nodes.
	Succs []*Node
}

// Graph is the CFG of one function body.
type Graph struct {
	// Entry is the first node of the body (the Exit node for an empty
	// body).
	Entry *Node
	// Exit is the synthetic fall-off-the-end node; Return is true on it.
	Exit *Node
	// Defers collects the body's defer statements (outside nested
	// function literals): they run on every return path, so path
	// analyses should check them before walking the graph.
	Defers []*ast.DeferStmt
	// Unsupported is set when the body uses goto; path analyses should
	// decline (report nothing) rather than reason over a wrong graph.
	Unsupported bool

	nodes map[ast.Stmt]*Node
}

// New builds the CFG of body. Nested function literals are opaque: their
// statements belong to their own graphs.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{nodes: make(map[ast.Stmt]*Node)}
	g.Exit = &Node{Return: true}
	b := &builder{g: g}
	g.Entry = b.stmts(body.List, g.Exit)
	return g
}

// EveryPathHits reports whether every control-flow path from `from`
// (exclusive) to any return — explicit or the implicit function exit —
// passes a node satisfying hit. If not, leak is a return node reachable
// while unhit. Declines (true, nil) on Unsupported graphs and when
// `from` has no node.
func (g *Graph) EveryPathHits(from ast.Stmt, hit func(*Node) bool) (ok bool, leak *Node) {
	if g.Unsupported {
		return true, nil
	}
	start := g.nodes[from]
	if start == nil {
		return true, nil
	}
	seen := make(map[*Node]bool)
	stack := append([]*Node(nil), start.Succs...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if hit(n) {
			continue // this path is satisfied; stop expanding it
		}
		if n.Return {
			return false, n
		}
		stack = append(stack, n.Succs...)
	}
	return true, nil
}

// builder threads loop/switch context through recursive construction.
type builder struct {
	g      *Graph
	breaks []breakable
}

// breakable is one enclosing break/continue target.
type breakable struct {
	label   string
	isLoop  bool
	breakTo *Node
	contTo  *Node
}

// node allocates (or reuses) the node for stmt.
func (b *builder) node(stmt ast.Stmt) *Node {
	if n, ok := b.g.nodes[stmt]; ok {
		return n
	}
	n := &Node{Stmt: stmt}
	b.g.nodes[stmt] = n
	return n
}

// stmts builds a statement list flowing into next, returning the entry.
func (b *builder) stmts(list []ast.Stmt, next *Node) *Node {
	entry := next
	for i := len(list) - 1; i >= 0; i-- {
		entry = b.stmt(list[i], "", entry)
	}
	return entry
}

// stmt builds one statement flowing into next, returning its entry node.
// label is the pending label when the statement came wrapped in a
// LabeledStmt.
func (b *builder) stmt(s ast.Stmt, label string, next *Node) *Node {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		return b.stmt(s.Stmt, s.Label.Name, next)

	case *ast.BlockStmt:
		return b.stmts(s.List, next)

	case *ast.ReturnStmt:
		n := b.node(s)
		n.Return = true
		return n

	case *ast.BranchStmt:
		n := b.node(s)
		switch s.Tok.String() {
		case "break":
			if t := b.target(s, true); t != nil {
				n.Succs = []*Node{t}
			}
		case "continue":
			if t := b.target(s, false); t != nil {
				n.Succs = []*Node{t}
			}
		case "goto":
			b.g.Unsupported = true
			n.Succs = []*Node{next}
		case "fallthrough":
			// Handled structurally by the switch builder; a stray one is
			// a compile error anyway.
			n.Succs = []*Node{next}
		}
		return n

	case *ast.IfStmt:
		n := b.node(s)
		thenEntry := b.stmts(s.Body.List, next)
		elseEntry := next
		if s.Else != nil {
			elseEntry = b.stmt(s.Else, "", next)
		}
		n.Succs = []*Node{thenEntry, elseEntry}
		return n

	case *ast.ForStmt:
		head := b.node(s)
		exit := &Node{LoopExit: s, Succs: []*Node{next}}
		b.push(label, true, exit, head)
		bodyEntry := b.stmts(s.Body.List, b.postThen(s, head))
		b.pop()
		head.Succs = []*Node{bodyEntry}
		if s.Cond != nil {
			head.Succs = append(head.Succs, exit)
		}
		return head

	case *ast.RangeStmt:
		head := b.node(s)
		exit := &Node{LoopExit: s, Succs: []*Node{next}}
		b.push(label, true, exit, head)
		bodyEntry := b.stmts(s.Body.List, head)
		b.pop()
		head.Succs = []*Node{bodyEntry, exit}
		return head

	case *ast.SwitchStmt:
		return b.switchLike(s, label, caseBodies(s.Body), next)
	case *ast.TypeSwitchStmt:
		return b.switchLike(s, label, caseBodies(s.Body), next)

	case *ast.SelectStmt:
		head := b.node(s)
		exit := &Node{Succs: []*Node{next}}
		b.push(label, false, exit, nil)
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := cc.Body
			if cc.Comm == nil {
				hasDefault = true
			} else {
				// The comm op itself (the send/recv that fired) leads the
				// case body.
				body = append([]ast.Stmt{cc.Comm}, body...)
			}
			head.Succs = append(head.Succs, b.stmts(body, exit))
		}
		b.pop()
		if len(head.Succs) == 0 && !hasDefault {
			// select{} blocks forever: no successors.
		}
		return head

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		n := b.node(s)
		n.Succs = []*Node{next}
		return n

	case *ast.ExprStmt:
		n := b.node(s)
		if isTerminalCall(s.X) {
			return n // panic/os.Exit: the path ends without returning
		}
		n.Succs = []*Node{next}
		return n

	default:
		// Assignments, sends, declarations, go statements, inc/dec,
		// empty statements: straight-line flow.
		n := b.node(s)
		n.Succs = []*Node{next}
		return n
	}
}

// postThen wires a for statement's post statement (if any) back to the
// head, returning the continue target.
func (b *builder) postThen(s *ast.ForStmt, head *Node) *Node {
	if s.Post == nil {
		return head
	}
	post := b.node(s.Post)
	post.Succs = []*Node{head}
	return post
}

// switchLike builds switch/type-switch flow: header to every case entry
// (and past the switch when there is no default), case bodies to the
// break target, fallthrough structurally to the next case body.
func (b *builder) switchLike(s ast.Stmt, label string, cases []caseBody, next *Node) *Node {
	head := b.node(s)
	exit := &Node{Succs: []*Node{next}}
	b.push(label, false, exit, nil)
	hasDefault := false
	// Build in reverse so each case knows its fallthrough successor.
	entries := make([]*Node, len(cases))
	nextCaseEntry := exit
	for i := len(cases) - 1; i >= 0; i-- {
		c := cases[i]
		if c.isDefault {
			hasDefault = true
		}
		entries[i] = b.stmtsWithFallthrough(c.body, exit, nextCaseEntry)
		nextCaseEntry = entries[i]
	}
	b.pop()
	head.Succs = append(head.Succs, entries...)
	if !hasDefault {
		head.Succs = append(head.Succs, exit)
	}
	return head
}

// stmtsWithFallthrough is stmts, but a trailing fallthrough flows to the
// next case body instead of out of the switch.
func (b *builder) stmtsWithFallthrough(list []ast.Stmt, next, fallTo *Node) *Node {
	if n := len(list); n > 0 {
		if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
			fn := b.node(br)
			fn.Succs = []*Node{fallTo}
			return b.stmts(list[:n-1], fn)
		}
	}
	return b.stmts(list, next)
}

type caseBody struct {
	body      []ast.Stmt
	isDefault bool
}

func caseBodies(block *ast.BlockStmt) []caseBody {
	var out []caseBody
	for _, c := range block.List {
		cc := c.(*ast.CaseClause)
		out = append(out, caseBody{body: cc.Body, isDefault: cc.List == nil})
	}
	return out
}

// push/pop/target maintain the break/continue context stack.
func (b *builder) push(label string, isLoop bool, breakTo, contTo *Node) {
	b.breaks = append(b.breaks, breakable{label: label, isLoop: isLoop, breakTo: breakTo, contTo: contTo})
}

func (b *builder) pop() { b.breaks = b.breaks[:len(b.breaks)-1] }

func (b *builder) target(s *ast.BranchStmt, isBreak bool) *Node {
	want := ""
	if s.Label != nil {
		want = s.Label.Name
	}
	for i := len(b.breaks) - 1; i >= 0; i-- {
		t := b.breaks[i]
		if want != "" && t.label != want {
			continue
		}
		if !isBreak && !t.isLoop {
			continue // continue skips switch/select contexts
		}
		if isBreak {
			return t.breakTo
		}
		return t.contTo
	}
	b.g.Unsupported = true // label out of scope: give up honestly
	return nil
}

// isTerminalCall recognizes calls that never return: panic and the
// process/goroutine terminators. Paths through them need no join — the
// goroutines die with the process or the stack unwinds past the caller.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			switch pkg.Name + "." + fun.Sel.Name {
			case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
		}
	}
	return false
}
