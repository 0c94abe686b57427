package core

// eucClassic computes the classical Euclidean-recurrence tile candidates
// for a 2D column-major array with leading dimension di in a direct-mapped
// cache of cs elements (the Euc algorithm of Rivera & Tseng, CC'99, built
// on Coleman & McKinley's recurrences). The remainder sequence
//
//	r0 = cs, r1 = di mod cs, r(k+1) = r(k-1) mod r(k)
//
// gives non-conflicting column heights TI = r(k), and the continued-
// fraction convergent denominators
//
//	u0 = 1, u1 = floor(r0/r1), u(k) = floor(r(k-1)/r(k))*u(k-1) + u(k-2)
//
// give the matching maximal column counts TJ = u(k). For the paper's
// Table 1 example (cs=2048, di=200) this yields exactly the TK=1 row:
// (1,2048), (10,200), (41,48), (256,8).
//
// Candidates are returned in decreasing-TI order. The three-distance
// theorem guarantees each candidate is conflict-free; Frontier(cs, di, 1, 0)
// computes the same set exactly and the tests assert they agree.
func eucClassic(cs, di int) []FrontierEntry {
	if cs <= 0 || di <= 0 {
		panic("core: eucClassic requires positive cs and di")
	}
	out := []FrontierEntry{{TJ: 1, TI: cs}}
	rPrev, r := cs, di%cs
	uPrev, u := 0, 1 // u(-1)=0, u(0)=1
	for r > 0 {
		q := rPrev / r
		uPrev, u = u, q*u+uPrev
		if last := out[len(out)-1]; u == last.TJ {
			// Same column count with a smaller height: dominated by the
			// previous entry (happens when the first quotient is 1).
		} else {
			out = append(out, FrontierEntry{TJ: u, TI: r})
		}
		rPrev, r = r, rPrev%r
	}
	return out
}

// euc selects the minimum-cost iteration tile for a 2D array (TK = depth
// in the 3D sense fixed at 1): the CC'99 Euc algorithm, which Euc3D
// generalizes.
func euc(cs, di int, st Stencil) Tile {
	st.validate()
	best := Tile{}
	bestCost := Cost(best, st)
	for _, e := range eucClassic(cs, di) {
		t := ArrayTile{TI: e.TI, TJ: e.TJ, TK: 1}.Trim(st)
		if c := Cost(t, st); c < bestCost {
			best, bestCost = t, c
		}
	}
	return best
}
