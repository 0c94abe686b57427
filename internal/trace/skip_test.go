package trace_test

import (
	"fmt"
	"reflect"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/stencil"
)

// skipAfter records the stream it receives and, as a
// cache.PhaseSkipper, declines the rest of the phase once the marker of
// unit k has passed.
type skipAfter struct {
	cache.RunRecorder
	k int
}

func (s *skipAfter) SkipRest() bool {
	return s.Marks[len(s.Marks)-1].Mark.Index >= s.k
}

// TestPhaseSkipperSkipsRest: a sink that declines the rest of a phase
// after unit k's marker receives exactly the full stream up to that
// marker, then one closing marker (Index == Planes-1) and no run of a
// later unit. The streams cover an outermost loop above the row loop
// (3-D JACOBI, untiled and tiled) and an outermost loop that is the row
// loop (2-D JACOBI).
func TestPhaseSkipperSkipsRest(t *testing.T) {
	arena := grid.NewArena()
	a := arena.Place(grid.Must3DPadded(9, 9, 7, 12, 10))
	b := arena.Place(grid.Must3DPadded(9, 9, 7, 12, 10))
	a2 := arena.Place2D(grid.New2D(9, 9))
	b2 := arena.Place2D(grid.New2D(9, 9))
	streams := map[string]func(cache.RunSink){
		"jacobi": func(sink cache.RunSink) {
			stencil.Replay(stencil.Jacobi, core.Plan{}, []*grid.Grid3D{a, b}, sink)
		},
		"jacobi-tiled": func(sink cache.RunSink) {
			stencil.Replay(stencil.Jacobi, tiledPlan(4, 3, 12, 10), []*grid.Grid3D{a, b}, sink)
		},
		"jacobi2d": func(sink cache.RunSink) { stencil.ReplayJacobi2D(a2, b2, 0, sink) },
	}
	for name, emit := range streams {
		var full cache.RunRecorder
		emit(&full)
		planes := full.Marks[0].Mark.Planes
		if planes < 3 || len(full.Marks) != planes {
			t.Fatalf("%s: want one phase of at least 3 units, got %d markers of %d units", name, len(full.Marks), planes)
		}
		for k := 0; k < planes; k++ {
			got := &skipAfter{k: k}
			emit(got)
			end := full.Marks[k].Pos
			wantMarks := append([]cache.RecordedMark(nil), full.Marks[:k+1]...)
			if k < planes-1 {
				closing := full.Marks[planes-1].Mark
				wantMarks = append(wantMarks, cache.RecordedMark{Pos: end, Mark: closing})
			}
			label := fmt.Sprintf("%s, skip after unit %d of %d", name, k, planes)
			if !reflect.DeepEqual(got.Runs, full.Runs[:end]) {
				t.Errorf("%s: %d runs received, want the %d before the marker", label, len(got.Runs), end)
			}
			if !reflect.DeepEqual(got.Marks, wantMarks) {
				t.Errorf("%s: markers %+v, want %+v", label, got.Marks, wantMarks)
			}
		}
	}
}
