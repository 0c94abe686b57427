package main

import (
	"math/rand"

	"tiling3d/internal/advisor"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// The advisor workload's request stream, generated from the seed. Every
// class count, every (kernel, geometry, method) count of the simulated
// class and the set of problem sizes in each stratum are fixed; the seed
// draws which method and geometry each size is asked with, which earlier
// request each repeat repeats, and the order. So every seed asks for
// nearly the same work, and a different seed still sends a different
// stream.

type reqClass int

const (
	classSim     reqClass = iota // a new request the simulator answers
	classRepeat                  // an exact repeat of an earlier request
	classListing                 // a new listing, analysed statically
)

const (
	advisorK = 16
	// simPerCell is the number of new simulated requests per (kernel,
	// L1 geometry, method): 3 x 3 x 5 x 13 = 585, about 60% of the
	// stream.
	simPerCell = 13
	// listingsPerKind is the number of new listings of each kind: 150,
	// about 15%.
	listingsPerKind = 50
	// repeats completes the stream to 1000 requests (26.5%), so that at
	// least ten latencies lie beyond the 99th percentile.
	repeats = 265
	minN    = 48
	maxN    = 128
)

// advisorGeometry is one simulated L1 the stream asks about.
type advisorGeometry struct {
	name string
	l1   advisor.Geometry
}

var advisorGeometries = []advisorGeometry{
	{"dm16k", advisor.Geometry{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}},
	{"assoc2", advisor.Geometry{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}},
	{"dm32k", advisor.Geometry{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 1}},
}

// advisorL2 is the paper's 2M direct-mapped L2.
func advisorL2() *advisor.Geometry {
	c := cache.UltraSparc2L2()
	return &advisor.Geometry{SizeBytes: c.SizeBytes, LineBytes: c.LineBytes, Assoc: c.Assoc, WriteAllocate: c.WriteAllocate}
}

// listingKind is one of the listings the stream sends, in the paper's
// notation.
type listingKind struct {
	src    string
	params map[string]int // besides N
}

var listingKinds = []listingKind{
	// Figure 3's 6-point JACOBI.
	{`
do K=2,N-1
  do J=2,N-1
    do I=2,N-1
      A(I,J,K) = C*(B(I-1,J,K)+B(I+1,J,K)+B(I,J-1,K)+B(I,J+1,K)+B(I,J,K-1)+B(I,J,K+1))
`, nil},
	// Figure 13's 27-point RESID.
	{`
do I3=2,N-1
 do I2=2,N-1
  do I1=2,N-1
   R(I1,I2,I3)=V(I1,I2,I3)
     -A0*( U(I1,I2,I3) )
     -A1*( U(I1-1,I2,I3) + U(I1+1,I2,I3) + U(I1,I2-1,I3) + U(I1,I2+1,I3) + U(I1,I2,I3-1) + U(I1,I2,I3+1) )
     -A2*( U(I1-1,I2-1,I3) + U(I1+1,I2-1,I3) + U(I1-1,I2+1,I3) + U(I1+1,I2+1,I3)
         + U(I1,I2-1,I3-1) + U(I1,I2+1,I3-1) + U(I1,I2-1,I3+1) + U(I1,I2+1,I3+1)
         + U(I1-1,I2,I3-1) + U(I1-1,I2,I3+1) + U(I1+1,I2,I3-1) + U(I1+1,I2,I3+1) )
     -A3*( U(I1-1,I2-1,I3-1) + U(I1+1,I2-1,I3-1) + U(I1-1,I2+1,I3-1) + U(I1+1,I2+1,I3-1)
         + U(I1-1,I2-1,I3+1) + U(I1+1,I2-1,I3+1) + U(I1-1,I2+1,I3+1) + U(I1+1,I2+1,I3+1) )
`, nil},
	// Figure 5's realistic time loop: a compute nest and a copy-back nest.
	{`
do T = 1, TSTEPS
  do K=2,N-1
    do J=2,N-1
      do I=2,N-1
        A(I,J,K) = C*(B(I-1,J,K)+B(I+1,J,K)+B(I,J-1,K)+B(I,J+1,K)+B(I,J,K-1)+B(I,J,K+1))
  do K=2,N-1
    do J=2,N-1
      do I=2,N-1
        B(I,J,K) = A(I,J,K)
`, map[string]int{"TSTEPS": 10}},
}

// planReq is one request of the stream.
type planReq struct {
	class reqClass
	// orig is the index of the request a repeat repeats; for a new
	// request, its own index.
	orig int
	geo  string // the L1 geometry's name
	body advisor.PlanRequest
}

// advisorMethods are the selection methods the stream asks for; every
// one simulates at every size and geometry of the stream. GcdPadNT is
// left out: its untiled plans carry Cost=+Inf, which encoding/json
// refuses, so the server answers those requests 200 with an empty body.
func advisorMethods() []core.Method {
	return []core.Method{core.Orig, core.MethodTile, core.MethodEuc3D, core.MethodGcdPad, core.MethodPad}
}

// genRequests builds the seeded request stream.
func genRequests(seed int64) []planReq {
	rng := rand.New(rand.NewSource(seed))
	// sizes spreads count distinct sizes evenly over [minN, maxN], in a
	// seeded order.
	sizes := func(count int) []int {
		out := make([]int, count)
		for i, j := range rng.Perm(count) {
			out[i] = minN + j*(maxN-minN)/(count-1)
		}
		return out
	}
	l2 := advisorL2()

	// New requests: distinct sizes within each (kernel, geometry) or
	// listing kind keep every key distinct.
	var sims []planReq
	methods := advisorMethods()
	for _, k := range stencil.Kernels() {
		for _, g := range advisorGeometries {
			ns := sizes(len(methods) * simPerCell)
			for i, n := range ns {
				sims = append(sims, planReq{class: classSim, geo: g.name, body: advisor.PlanRequest{
					Kernel: kernelName(k), N: n, K: advisorK, L1: g.l1, L2: l2,
					Method: methods[i%len(methods)].String()}})
			}
		}
	}
	var listings []planReq
	for _, lk := range listingKinds {
		for _, n := range sizes(listingsPerKind) {
			g := advisorGeometries[rng.Intn(len(advisorGeometries))]
			params := map[string]int{"N": n}
			for name, v := range lk.params {
				params[name] = v
			}
			listings = append(listings, planReq{class: classListing, geo: g.name, body: advisor.PlanRequest{
				Program: lk.src, Params: params, N: n, L1: g.l1,
				Method: methods[rng.Intn(len(methods))].String()}})
		}
	}
	rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	rng.Shuffle(len(listings), func(i, j int) { listings[i], listings[j] = listings[j], listings[i] })

	classes := make([]reqClass, 0, len(sims)+len(listings)+repeats)
	for i := 0; i < len(sims); i++ {
		classes = append(classes, classSim)
	}
	for i := 0; i < len(listings); i++ {
		classes = append(classes, classListing)
	}
	for i := 0; i < repeats; i++ {
		classes = append(classes, classRepeat)
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	if classes[0] == classRepeat { // the first request has nothing to repeat
		for i, c := range classes {
			if c != classRepeat {
				classes[0], classes[i] = classes[i], classes[0]
				break
			}
		}
	}

	out := make([]planReq, 0, len(classes))
	var originals []int
	for _, c := range classes {
		var r planReq
		switch c {
		case classSim:
			r, sims = sims[0], sims[1:]
		case classListing:
			r, listings = listings[0], listings[1:]
		case classRepeat:
			r = out[originals[rng.Intn(len(originals))]]
			r.class = classRepeat
		}
		if c != classRepeat {
			r.orig = len(out)
			originals = append(originals, len(out))
		}
		out = append(out, r)
	}
	return out
}
