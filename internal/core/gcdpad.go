package core

import (
	"fmt"
	"math/bits"
)

// GcdPad implements the padding-for-fixed-tile-size heuristic of
// Section 3.4.1 (Figure 10). It picks power-of-two array tile dimensions
// (TI, TJ, TK) with TI*TJ*TK = cs, then pads the array's lower dimensions
// DI, DJ up to the nearest values satisfying gcd(DI_p, cs) = TI and
// gcd(DJ_p, cs) = TJ — i.e. odd multiples of TI and TJ — which guarantees
// the array tile is conflict-free. The pad added to DI is at most 2*TI-1
// and to DJ at most 2*TJ-1.
//
// cs must be a power of two (it is the cache capacity in elements, 2048
// for the paper's 16KB cache of doubles).
//
// TK is the paper's fixed 4 when the stencil depth allows ("only 3-4 tile
// planes must exist in cache depending on the target tiled nest"); for
// deeper stencils it is rounded up to the next power of two >= st.Depth.
func GcdPad(cs, di, dj int, st Stencil) Plan {
	st.validate()
	tile, dip, djp := gcdPadParts(cs, di, dj, st)
	return Plan{Tile: tile, DI: dip, DJ: djp, Tiled: true, Cost: Cost(tile, st)}
}

// GcdPadNT is GcdPad without tiling: it applies the same padding but
// leaves the loop nest untouched. The paper evaluates it to isolate the
// effect of padding alone (the GcdPadNT column of Table 3).
func GcdPadNT(cs, di, dj int, st Stencil) Plan {
	st.validate()
	_, dip, djp := gcdPadParts(cs, di, dj, st)
	return Plan{DI: dip, DJ: djp, Tiled: false, Cost: Cost(Tile{}, st)}
}

// GcdPadArrayTile returns the power-of-two array tile (TI, TJ, TK) GcdPad
// targets for a cache of cs elements: TK as above, TI the smallest power
// of two >= sqrt(cs/TK), TJ = cs/(TK*TI). For cs=2048 and a depth-3
// stencil this is (32, 16, 4), the paper's example.
func GcdPadArrayTile(cs int, st Stencil) ArrayTile {
	if cs <= 0 || cs&(cs-1) != 0 {
		panic(fmt.Sprintf("core: GcdPad requires a power-of-two cache size in elements, got %d", cs))
	}
	tk := 4
	for tk < st.Depth {
		tk <<= 1
	}
	if tk > cs {
		panic(fmt.Sprintf("core: stencil depth %d exceeds cache size %d", st.Depth, cs))
	}
	// TI = 2^ceil(log2(sqrt(cs/TK))): the smallest power of two whose
	// square is at least cs/TK.
	quot := cs / tk
	ti := 1
	for ti*ti < quot {
		ti <<= 1
	}
	tj := cs / (tk * ti)
	if tj < 1 {
		tj = 1
		ti = cs / tk
	}
	return ArrayTile{TI: ti, TJ: tj, TK: tk}
}

func gcdPadParts(cs, di, dj int, st Stencil) (Tile, int, int) {
	at := GcdPadArrayTile(cs, st)
	return at.Trim(st), padToOddMultiple(di, at.TI), padToOddMultiple(dj, at.TJ)
}

// padToOddMultiple returns the smallest odd multiple of t that is >= d:
// the paper's 2*TI*floor((DI + 3*TI - 1)/(2*TI)) - TI. An odd multiple of
// a power of two t has gcd(., cs) = t for any power-of-two cs >= t, which
// is the non-conflict condition GcdPad relies on.
func padToOddMultiple(d, t int) int {
	return 2*t*((d+3*t-1)/(2*t)) - t
}

// log2 returns floor(log2(x)) for x >= 1.
func log2(x int) int {
	if x < 1 {
		panic("core: log2 of non-positive value")
	}
	return bits.Len(uint(x)) - 1
}
