package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// build parses src as a file containing one function and returns its
// graph.
func build(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return New(fd.Body)
}

// exitEdges collects every edge into Exit.
func exitEdges(g *Graph) []Edge {
	var out []Edge
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.To == g.Exit {
				out = append(out, e)
			}
		}
	}
	return out
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	if len(g.Entry.Nodes) != 2 {
		t.Fatalf("entry nodes = %d, want 2", len(g.Entry.Nodes))
	}
	if len(exitEdges(g)) != 1 {
		t.Fatalf("exit edges = %v, want 1", exitEdges(g))
	}
}

func TestIfCondEdges(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n x = 2\n} else {\n x = 3\n}\n_ = x")
	var trueEdge, falseEdge int
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Cond != nil {
				if e.Val {
					trueEdge++
				} else {
					falseEdge++
				}
			}
		}
	}
	if trueEdge != 1 || falseEdge != 1 {
		t.Fatalf("cond edges true=%d false=%d, want 1/1", trueEdge, falseEdge)
	}
}

func TestReturnCutsFlow(t *testing.T) {
	g := build(t, "if true {\n return\n}\nx := 1\n_ = x")
	// Two paths to exit: the return and falling off the end.
	if n := len(exitEdges(g)); n != 2 {
		t.Fatalf("exit edges = %d, want 2", n)
	}
}

func TestPanicEdgeMarked(t *testing.T) {
	g := build(t, "if true {\n panic(\"boom\")\n}")
	var panics int
	for _, e := range exitEdges(g) {
		if e.Panic {
			panics++
		}
	}
	if panics != 1 {
		t.Fatalf("panic edges = %d, want 1", panics)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := build(t, "for i := 0; i < 3; i++ {\n if i == 1 {\n  break\n }\n continue\n}")
	// The graph must terminate a DFS (back edges present, no hang) and
	// reach exit.
	if !reachableWithout(g, g.Entry, func(*Block) bool { return false }) {
		t.Fatal("exit unreachable")
	}
}

func TestSwitchDefaultAndFallthrough(t *testing.T) {
	g := build(t, "x := 1\nswitch x {\ncase 1:\n x = 2\n fallthrough\ncase 2:\n x = 3\ndefault:\n x = 4\n}\n_ = x")
	if !reachableWithout(g, g.Entry, func(*Block) bool { return false }) {
		t.Fatal("exit unreachable")
	}
	// With a default clause there is no head→after edge; the only way
	// past the switch is through a clause. Verify by stopping at every
	// block containing an assignment inside a clause: exit must become
	// unreachable only if all clause bodies are stopped — cheap sanity
	// that clause bodies are on the path.
	stops := func(b *Block) bool {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "x" {
					if as.Tok == token.ASSIGN {
						return true
					}
				}
			}
		}
		return false
	}
	if reachableWithout(g, g.Entry, stops) {
		t.Fatal("switch with default should force flow through a clause")
	}
}

func TestSelectNoDefaultBlocks(t *testing.T) {
	g := build(t, "ch := make(chan int)\nselect {\ncase <-ch:\n}\nx := 1\n_ = x")
	if !reachableWithout(g, g.Entry, func(*Block) bool { return false }) {
		t.Fatal("exit unreachable through the select case")
	}
}

func TestLabeledContinue(t *testing.T) {
	g := build(t, "outer:\nfor i := 0; i < 2; i++ {\n for j := 0; j < 2; j++ {\n  continue outer\n }\n}")
	if !reachableWithout(g, g.Entry, func(*Block) bool { return false }) {
		t.Fatal("exit unreachable")
	}
}

func TestGoto(t *testing.T) {
	g := build(t, "i := 0\nagain:\ni++\nif i < 3 {\n goto again\n}")
	if !reachableWithout(g, g.Entry, func(*Block) bool { return false }) {
		t.Fatal("exit unreachable")
	}
}

// reachableWithout reports whether Exit is reachable from start without
// passing through a block for which stop returns true.
func reachableWithout(g *Graph, start *Block, stop func(*Block) bool) bool {
	seen := make(map[*Block]bool, len(g.Blocks))
	var dfs func(*Block) bool
	dfs = func(blk *Block) bool {
		if blk == g.Exit {
			return true
		}
		if seen[blk] || stop(blk) {
			return false
		}
		seen[blk] = true
		for _, e := range blk.Succs {
			if dfs(e.To) {
				return true
			}
		}
		return false
	}
	return dfs(start)
}
