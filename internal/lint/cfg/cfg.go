// Package cfg builds a small control-flow graph over Go function
// bodies for the repo's flow-sensitive analyzers. It is deliberately
// modest — a subset of golang.org/x/tools/go/cfg sized to what the
// settle and degrademark analyzers need:
//
//   - Blocks hold a flat sequence of ast.Nodes: ordinary statements
//     plus, for control statements, their evaluated parts (init
//     statements, condition expressions, range operands) in evaluation
//     order. Bodies of nested control statements live in other blocks,
//     so scanning a block never double-counts.
//   - Edges out of a conditional carry the condition expression and the
//     value it took, so a dataflow pass can split on a guard
//     (`if !ok { return }`).
//   - Explicit terminations (return, panic, os.Exit, log.Fatal*,
//     runtime.Goexit, testing Fatal*) edge to the synthetic Exit block;
//     panic-like ones mark the edge so analyzers can exempt assertion
//     paths.
//   - Labels, goto, break/continue (with labels), switch (incl. type
//     switches and fallthrough) and select are handled. Function
//     literals are NOT entered: a nested func is its own graph.
//
// Defer and go statements appear as ordinary nodes in their block;
// modeling when a deferred call runs is the analyzer's business.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of evaluated nodes.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, for tests
	// and debugging).
	Index int
	// Nodes are the evaluated statements/expressions, in order.
	Nodes []ast.Node
	// Succs are the outgoing edges in source order.
	Succs []Edge
}

// Edge is one control transfer.
type Edge struct {
	To *Block
	// Cond is the condition whose outcome selects this edge (an if or
	// for condition), nil for unconditional transfers.
	Cond ast.Expr
	// Val is the value Cond took along this edge.
	Val bool
	// Panic marks a transfer to Exit caused by an explicit panic-like
	// terminator rather than a return or falling off the end.
	Panic bool
}

// Graph is the CFG of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the graph for a function body. A nil body yields a trivial
// entry→exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{}
	b.graph = &Graph{}
	b.graph.Entry = b.newBlock()
	b.graph.Exit = b.newBlock()
	b.cur = b.graph.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edgeTo(b.graph.Exit) // falling off the end
	return b.graph
}

// builder carries the under-construction graph.
type builder struct {
	graph *Graph
	cur   *Block // nil when the current position is unreachable
	// breakTargets / continueTargets stack, innermost last.
	loops  []loopFrame
	labels map[string]*labelFrame
}

type loopFrame struct {
	label         string
	breakTo       *Block
	continueTo    *Block // nil for switch/select frames
	isLoop        bool
	fallthroughTo *Block // next case clause body, switch frames only
}

type labelFrame struct {
	block *Block // target of goto
	used  bool
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.graph.Blocks)}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// edgeTo links the current block to dst (unconditionally) and keeps the
// current position.
func (b *builder) edgeTo(dst *Block) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, Edge{To: dst})
}

// condEdge links the current block to dst for Cond taking val.
func (b *builder) condEdge(dst *Block, cond ast.Expr, val bool) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, Edge{To: dst, Cond: cond, Val: val})
}

func (b *builder) add(n ast.Node) {
	if b.cur == nil || n == nil {
		return
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the pending label when the
// statement is the body of a LabeledStmt (so `continue L` resolves).
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.cur.Succs = append(b.cur.Succs, Edge{To: b.graph.Exit})
		}
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			if b.cur != nil {
				b.cur.Succs = append(b.cur.Succs, Edge{To: b.graph.Exit, Panic: true})
			}
			b.cur = nil
		}
	default:
		// Assignments, declarations, defer, go, send, incdec, empty:
		// straight-line nodes.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	head := b.cur
	then := b.newBlock()
	b.condEdge(then, s.Cond, true)
	after := b.newBlock()

	b.cur = then
	b.stmtList(s.Body.List)
	b.edgeTo(after)

	if s.Else != nil {
		els := b.newBlock()
		b.cur = head
		b.condEdge(els, s.Cond, false)
		b.cur = els
		b.stmt(s.Else, "")
		b.edgeTo(after)
	} else {
		b.cur = head
		b.condEdge(after, s.Cond, false)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.edgeTo(head)
	body := b.newBlock()
	after := b.newBlock()
	post := head
	if s.Post != nil {
		post = b.newBlock()
	}

	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		b.condEdge(body, s.Cond, true)
		b.condEdge(after, s.Cond, false)
	} else {
		b.edgeTo(body)
	}

	b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: post, isLoop: true})
	b.cur = body
	b.stmtList(s.Body.List)
	b.edgeTo(post)
	b.loops = b.loops[:len(b.loops)-1]

	if s.Post != nil {
		b.cur = post
		b.add(s.Post)
		b.edgeTo(head)
	}
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	head := b.newBlock()
	b.edgeTo(head)
	body := b.newBlock()
	after := b.newBlock()

	b.cur = head
	// The per-iteration assignment evaluates in the head.
	if s.Key != nil {
		b.add(s.Key)
	}
	if s.Value != nil {
		b.add(s.Value)
	}
	b.edgeTo(body)
	b.edgeTo(after)

	b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: head, isLoop: true})
	b.cur = body
	b.stmtList(s.Body.List)
	b.edgeTo(head)
	b.loops = b.loops[:len(b.loops)-1]

	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt) {
		return cc.List, cc.Body
	})
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Expr, []ast.Stmt) {
		return cc.List, cc.Body
	})
}

// caseClauses builds the shared switch shape: head → each clause body,
// head → after when no default clause exists, fallthrough chaining.
func (b *builder) caseClauses(clauses []ast.Stmt, label string, parts func(*ast.CaseClause) ([]ast.Expr, []ast.Stmt)) {
	head := b.cur
	after := b.newBlock()
	hasDefault := false

	// Create clause bodies first so fallthrough can see its successor.
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, raw := range clauses {
		cc := raw.(*ast.CaseClause)
		exprs, stmts := parts(cc)
		if exprs == nil {
			hasDefault = true
		}
		b.cur = head
		for _, e := range exprs {
			b.add(e)
		}
		b.edgeTo(bodies[i])

		var ft *Block
		if i+1 < len(clauses) {
			ft = bodies[i+1]
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, fallthroughTo: ft})
		b.cur = bodies[i]
		b.stmtList(stmts)
		b.edgeTo(after)
		b.loops = b.loops[:len(b.loops)-1]
	}
	if !hasDefault {
		b.cur = head
		b.edgeTo(after)
	}
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.newBlock()
	hasDefault := false
	for _, raw := range s.Body.List {
		cc := raw.(*ast.CommClause)
		if cc.Comm == nil {
			hasDefault = true
		}
		body := b.newBlock()
		b.cur = head
		b.edgeTo(body)
		b.cur = body
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after})
		b.stmtList(cc.Body)
		b.edgeTo(after)
		b.loops = b.loops[:len(b.loops)-1]
	}
	// A select without default blocks until a case fires; there is no
	// fall-through edge. An empty select never proceeds.
	_ = hasDefault
	if len(s.Body.List) == 0 {
		b.cur = head
		b.cur = nil
	} else {
		b.cur = after
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if label == "" || f.label == label {
				b.edgeTo(f.breakTo)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if f.isLoop && (label == "" || f.label == label) {
				b.edgeTo(f.continueTo)
				break
			}
		}
	case token.FALLTHROUGH:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if f := b.loops[i]; f.breakTo != nil {
				if f.fallthroughTo != nil {
					b.edgeTo(f.fallthroughTo)
				}
				break
			}
		}
	case token.GOTO:
		if label != "" {
			b.edgeTo(b.labelBlock(label))
		}
	}
	b.cur = nil
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	target := b.labelBlock(s.Label.Name)
	b.edgeTo(target)
	b.cur = target
	b.stmt(s.Stmt, s.Label.Name)
}

func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*labelFrame{}
	}
	f := b.labels[name]
	if f == nil {
		f = &labelFrame{block: b.newBlock()}
		b.labels[name] = f
	}
	return f.block
}

// isTerminalCall reports whether the expression is a call that never
// returns: panic, os.Exit, log.Fatal*, log.Panic*, runtime.Goexit, or a
// testing Fatal*/Skip* method. Purely syntactic — the analyzers using
// the CFG treat these paths as assertions, not resource escapes.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if recv, ok := fun.X.(*ast.Ident); ok {
			switch recv.Name {
			case "os":
				return name == "Exit"
			case "log":
				return name == "Fatal" || name == "Fatalf" || name == "Fatalln" ||
					name == "Panic" || name == "Panicf" || name == "Panicln"
			case "runtime":
				return name == "Goexit"
			}
		}
		switch name {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			// Conventionally *testing.T / *testing.B receivers; harmless
			// to treat as terminal elsewhere.
			return true
		}
	}
	return false
}
