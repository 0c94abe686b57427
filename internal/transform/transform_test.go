package transform

import (
	"reflect"
	"strings"
	"testing"

	"tiling3d/internal/core"
	"tiling3d/internal/deps"
	"tiling3d/internal/ir"
)

func TestStripMineStructure(t *testing.T) {
	n := ir.JacobiNest(20, 10)
	out, err := StripMine(n, "J", "JJ", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Loops) != 4 {
		t.Fatalf("got %d loops, want 4", len(out.Loops))
	}
	if out.Loops[1].Name != "JJ" || out.Loops[1].Step != 4 {
		t.Errorf("tile loop = %+v", out.Loops[1])
	}
	j := out.Loops[2]
	if j.Name != "J" || j.Step != 1 {
		t.Errorf("element loop = %+v", j)
	}
	// J runs JJ .. min(JJ+3, 18).
	env := map[string]int{"JJ": 17}
	if lo, hi := j.Lo.EvalMax(env), j.Hi.EvalMin(env); lo != 17 || hi != 18 {
		t.Errorf("clamped tile bounds [%d,%d], want [17,18]", lo, hi)
	}
	env["JJ"] = 5
	if hi := j.Hi.EvalMin(env); hi != 8 {
		t.Errorf("full tile upper bound %d, want 8", hi)
	}
	// Original nest untouched.
	if len(n.Loops) != 3 {
		t.Error("StripMine mutated its input")
	}
}

func TestStripMineErrors(t *testing.T) {
	n := ir.JacobiNest(20, 10)
	if _, err := StripMine(n, "X", "XX", 4); err == nil {
		t.Error("unknown loop not rejected")
	}
	if _, err := StripMine(n, "J", "K", 4); err == nil {
		t.Error("duplicate loop name not rejected")
	}
	if _, err := StripMine(n, "J", "JJ", 0); err == nil {
		t.Error("zero factor not rejected")
	}
}

func TestInterchangeLegalNoDeps(t *testing.T) {
	n := ir.JacobiNest(20, 10)
	out, err := Interchange(n, []string{"I", "K", "J"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Loops[0].Name != "I" || out.Loops[2].Name != "J" {
		t.Errorf("order = %v", []string{out.Loops[0].Name, out.Loops[1].Name, out.Loops[2].Name})
	}
}

func TestInterchangeIllegalReversesDependence(t *testing.T) {
	// A(I,J) = A(I-1,J+1): distance (+1,-1) in (J outer? order (J,I)).
	i, j := ir.Var("I", 0), ir.Var("J", 0)
	n := &ir.Nest{
		Loops: []ir.Loop{ir.SimpleLoop("J", 1, 8), ir.SimpleLoop("I", 1, 8)},
		Body: []ir.Ref{
			ir.Load("A", i.Plus(-1), j.Plus(1)),
			ir.StoreRef("A", i, j),
		},
	}
	// Distance from store A(i,j) to load A(i-1,j+1): (J,I) = (-1,+1)
	// or (+1,-1) depending on orientation: lexicographic sign flips
	// under interchange, so swapping J and I must be refused.
	if _, err := Interchange(n, []string{"I", "J"}); err == nil {
		t.Error("dependence-reversing interchange not refused")
	}
	// The identity permutation stays legal.
	if _, err := Interchange(n, []string{"J", "I"}); err != nil {
		t.Errorf("identity permutation refused: %v", err)
	}
}

func TestInterchangeBoundUseRefused(t *testing.T) {
	n := ir.JacobiNest(20, 10)
	sm, err := StripMine(n, "J", "JJ", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Moving J outside JJ would leave J's bounds referencing JJ.
	if _, err := Interchange(sm, []string{"K", "J", "JJ", "I"}); err == nil {
		t.Error("permutation hoisting J above JJ not refused")
	}
}

func TestTileInner2Shape(t *testing.T) {
	n := ir.JacobiNest(30, 12)
	out, err := TileInner2(n, core.Tile{TI: 5, TJ: 7})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(out.Loops))
	for i, l := range out.Loops {
		names[i] = l.Name
	}
	want := []string{"JJ", "II", "K", "J", "I"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("loop order %v, want %v", names, want)
		}
	}
	// Rendering shows the Figure 6 structure.
	s := out.String()
	if !strings.Contains(s, "do JJ = 1, 28, 7") || !strings.Contains(s, "min(") {
		t.Errorf("tiled nest rendering unexpected:\n%s", s)
	}
}

// TestTileInner2MatchesComposition pins TileInner2, which builds the
// tiled nest from one clone, to the textbook composition it stands for:
// strip-mine J, strip-mine I, interchange JJ and II outermost.
func TestTileInner2MatchesComposition(t *testing.T) {
	nests := map[string]*ir.Nest{
		"jacobi": ir.JacobiNest(30, 12),
		"resid":  ir.ResidNest(40, 12),
		"psinv":  ir.PsinvNest(18),
		"rprj3":  ir.Rprj3Nest(10),
	}
	for name, n := range nests {
		for _, tile := range []core.Tile{{TI: 1, TJ: 1}, {TI: 5, TJ: 7}, {TI: 64, TJ: 3}} {
			got, err := TileInner2(n, tile)
			if err != nil {
				t.Fatalf("%s %v: %v", name, tile, err)
			}
			k, j, i := n.Loops[0].Name, n.Loops[1].Name, n.Loops[2].Name
			want, err := StripMine(n, j, j+j, tile.TJ)
			if err == nil {
				want, err = StripMine(want, i, i+i, tile.TI)
			}
			if err == nil {
				want, err = Interchange(want, []string{j + j, i + i, k, j, i})
			}
			if err != nil {
				t.Fatalf("%s %v: composition: %v", name, tile, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: TileInner2\n%s\ncomposition\n%s", name, tile, got, want)
			}
		}
	}
}

// TestTileInner2SingleIterationLoop pins the one nest on which
// TileInner2 and the composition differ. J runs once and the store
// A(I,K) does not use it, so the nest carries nothing. After
// strip-mining, the element loop J has symbolic bounds and Interchange's
// analysis reports the pair as unknown and refuses; TileInner2 accepts,
// builds the composition's loops, and deps.Certify proves the result.
func TestTileInner2SingleIterationLoop(t *testing.T) {
	i, k := ir.Var("I", 0), ir.Var("K", 0)
	n := &ir.Nest{
		Loops: []ir.Loop{
			ir.SimpleLoop("K", 1, 8), ir.SimpleLoop("J", 1, 1), ir.SimpleLoop("I", 1, 8),
		},
		Body: []ir.Ref{
			ir.Load("A", i, k),
			ir.StoreRef("A", i, k),
		},
	}
	tile := core.Tile{TI: 4, TJ: 4}
	got, err := TileInner2(n, tile)
	if err != nil {
		t.Fatalf("TileInner2 refused a nest that carries nothing: %v", err)
	}
	if err := deps.Certify(n, got); err != nil {
		t.Fatalf("accepted tiling does not certify: %v", err)
	}
	want, err := StripMine(n, "J", "JJ", tile.TJ)
	if err == nil {
		want, err = StripMine(want, "I", "II", tile.TI)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Interchange(want, []string{"JJ", "II", "K", "J", "I"}); err == nil {
		t.Error("Interchange accepted the strip-mined nest; TileInner2's doc comment names this as the case the composition refuses")
	}
	l := want.Loops // K, JJ, J, II, I
	want.Loops = []ir.Loop{l[1], l[3], l[0], l[2], l[4]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TileInner2\n%s\nstrip-mined and reordered\n%s", got, want)
	}
}

func TestTileInner2RefusesCarriedDeps(t *testing.T) {
	// In-place update with a loop-carried dependence.
	i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
	n := &ir.Nest{
		Loops: []ir.Loop{
			ir.SimpleLoop("K", 1, 8), ir.SimpleLoop("J", 1, 8), ir.SimpleLoop("I", 1, 8),
		},
		Body: []ir.Ref{
			ir.Load("A", i.Plus(-1), j, k),
			ir.StoreRef("A", i, j, k),
		},
	}
	if _, err := TileInner2(n, core.Tile{TI: 4, TJ: 4}); err == nil {
		t.Error("tiling a dependence-carrying nest not refused")
	}
}

func TestApplyPlanUntiled(t *testing.T) {
	n := ir.JacobiNest(20, 10)
	out, err := ApplyPlan(n, core.Plan{DI: 20, DJ: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Loops) != 3 {
		t.Errorf("untiled plan changed the nest: %d loops", len(out.Loops))
	}
}

func TestTiledNestAnalyzesSame(t *testing.T) {
	// Analysis on the tiled nest still sees the same stencil: the
	// transformation changes iteration order, not the reference pattern.
	n := ir.ResidNest(40, 12)
	tiled, err := TileInner2(n, core.Tile{TI: 8, TJ: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ir.Analyze(tiled)
	if err != nil {
		t.Fatal(err)
	}
	if st != core.Resid27pt() {
		t.Errorf("tiled nest analyzes to %+v", st)
	}
}
