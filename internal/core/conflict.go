package core

// SelfConflicts reports whether the array tile (ti, tj, tk) of a
// column-major DI x DJ x M array self-interferes in a direct-mapped cache
// of cs elements: whether any two tile elements map to the same cache
// location. This is the brute-force ground truth the Euclidean algorithms
// approximate; the tests check every candidate they emit against it.
//
// Element granularity, like the paper: two elements conflict only when
// their addresses are congruent mod cs. See selfConflictsLines for the
// conservative line-granularity variant.
func SelfConflicts(cs, di, dj, ti, tj, tk int) bool {
	if cs <= 0 || di <= 0 || dj <= 0 || ti <= 0 || tj <= 0 || tk <= 0 {
		panic("core: SelfConflicts requires positive arguments")
	}
	if ti*tj*tk > cs {
		return true // pigeonhole: more elements than cache locations
	}
	seen := make([]bool, cs)
	for k := 0; k < tk; k++ {
		for j := 0; j < tj; j++ {
			col := (j*di + k*di*dj) % cs
			// The ti elements of this column segment are contiguous
			// starting at col, wrapping mod cs.
			for i := 0; i < ti; i++ {
				s := col + i
				if s >= cs {
					s -= cs
				}
				if seen[s] {
					return true
				}
				seen[s] = true
			}
		}
	}
	return false
}

// selfConflictsLines is the line-granularity version of SelfConflicts:
// two tile elements conflict when their cache lines are distinct in
// memory but map to the same cache set of a direct-mapped cache with
// csBytes capacity and lineBytes lines. Column segments whose ends share
// a memory line with a neighboring segment do not conflict (same line),
// but two segments from different columns landing in the same set do.
// elemSize is the element size in bytes.
//
// The array base is assumed line-aligned (anchor 0), which holds for
// large allocations in practice; see selfConflictsLinesWorstCase for the
// alignment-independent check. Misalignment adds at most one shared
// boundary set per pair of cache-adjacent segments — tiles that are
// aligned-clean but misaligned-dirty lose a sliver, not the tile.
func selfConflictsLines(csBytes, lineBytes, elemSize, di, dj, ti, tj, tk int) bool {
	validateLineGeometry(csBytes, lineBytes, elemSize)
	return selfConflictsLinesAt(csBytes/lineBytes, lineElems(lineBytes, elemSize), di, dj, ti, tj, tk, 0)
}

// selfConflictsLinesWorstCase repeats the check for every possible base
// misalignment within a line and reports a conflict if any anchor
// produces one.
func selfConflictsLinesWorstCase(csBytes, lineBytes, elemSize, di, dj, ti, tj, tk int) bool {
	validateLineGeometry(csBytes, lineBytes, elemSize)
	le := lineElems(lineBytes, elemSize)
	sets := csBytes / lineBytes
	for anchor := 0; anchor < le; anchor++ {
		if selfConflictsLinesAt(sets, le, di, dj, ti, tj, tk, anchor) {
			return true
		}
	}
	return false
}

func validateLineGeometry(csBytes, lineBytes, elemSize int) {
	if lineBytes <= 0 || elemSize <= 0 || csBytes <= 0 || csBytes%lineBytes != 0 {
		panic("core: line-granularity check requires a valid cache geometry")
	}
}

func lineElems(lineBytes, elemSize int) int {
	le := lineBytes / elemSize
	if le == 0 {
		le = 1
	}
	return le
}

func selfConflictsLinesAt(sets, lineElems, di, dj, ti, tj, tk, anchor int) bool {
	// owner[set] records which memory line currently occupies the set;
	// distinct lines in the same set conflict.
	owner := make(map[int]int64, ti*tj*tk/lineElems+tj*tk+1)
	for k := 0; k < tk; k++ {
		for j := 0; j < tj; j++ {
			base := int64(anchor + j*di + k*di*dj)
			firstLine := base / int64(lineElems)
			lastLine := (base + int64(ti) - 1) / int64(lineElems)
			for line := firstLine; line <= lastLine; line++ {
				set := int(line % int64(sets))
				if prev, ok := owner[set]; ok && prev != line {
					return true
				}
				owner[set] = line
			}
		}
	}
	return false
}
