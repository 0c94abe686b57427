// Command fc is the end-to-end stencil compiler: it reads a Fortran-like
// stencil loop nest (the notation of the paper's figures), analyzes the
// references to derive the stencil footprint, selects a tile/padding plan
// for the target cache, applies the tiling transformation and emits the
// resulting Go function.
//
//	fc -param N=300 -cache 16384 -method Pad kernel.f
//	echo 'do K=2,N-1 ...' | fc -param N=300 -
//	fc -kernel jacobi -param N=300 -param K=30 -method Pad
//
// -kernel compiles a built-in kernel's nest (jacobi or resid) instead of
// reading source. With -ir it also prints the nest before and after
// transformation; with -certify it checks that the transformed nest
// preserves every dependence of the original; with -plan-only it stops
// after selection.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tiling3d/internal/core"
	"tiling3d/internal/deps"
	"tiling3d/internal/ir"
	"tiling3d/internal/lang"
	"tiling3d/internal/stencil"
	"tiling3d/internal/transform"
)

type paramList map[string]int

func (p paramList) String() string { return fmt.Sprint(map[string]int(p)) }

func (p paramList) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=VALUE, got %q", s)
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		return err
	}
	p[strings.TrimSpace(name)] = v
	return nil
}

func main() {
	params := paramList{}
	var (
		cacheBytes = flag.Int("cache", 16384, "target cache capacity (bytes)")
		elemSize   = flag.Int("elem", 8, "element size (bytes)")
		methodName = flag.String("method", "Pad", "selection method")
		funcName   = flag.String("func", "", "generated function name (default stencilTiled; jacobiTiled or residTiled with -kernel)")
		kernelName = flag.String("kernel", "", "compile a built-in kernel, jacobi or resid, at -param N and K (default 300 and 30) instead of reading source")
		showIR     = flag.Bool("ir", false, "print the IR before and after transformation")
		certify    = flag.Bool("certify", false, "run the dependence certifier on the transformed nest")
		planOnly   = flag.Bool("plan-only", false, "stop after tile/padding selection")
	)
	flag.Var(params, "param", "size parameter NAME=VALUE (repeatable)")
	flag.Parse()

	var nest *ir.Nest
	name := *funcName
	if *kernelName != "" {
		var err error
		nest, name, err = kernelNest(*kernelName, params, name)
		if err != nil {
			fail(err)
		}
	} else {
		if name == "" {
			name = "stencilTiled"
		}
		src, err := readSource(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		prog, err := lang.ParseProgram(src, params)
		if err != nil {
			fail(err)
		}
		if prog.TimeVar != "" {
			fmt.Printf("// time loop %s: %d steps (per-sweep code below; run it %d times)\n",
				prog.TimeVar, prog.Steps, prog.Steps)
		}
		if len(prog.Nests) == 2 {
			// The "realistic stencil code" pattern (Figure 5, middle): fuse
			// the two nests so one traversal performs both.
			compileFusedPair(prog, name, *showIR)
			return
		}
		if len(prog.Nests) != 1 {
			fail(fmt.Errorf("fc: %d nests; only single nests and fusible pairs are supported", len(prog.Nests)))
		}
		nest = prog.Nests[0]
	}
	st, err := ir.Analyze(nest)
	if err != nil {
		fail(err)
	}
	// The lower array dimensions come from the nest's two inner loop
	// extents plus the boundary the source leaves untouched.
	di, dj, err := lowerDims(nest, st)
	if err != nil {
		fail(err)
	}
	method, err := core.ParseMethod(*methodName)
	if err != nil {
		fail(err)
	}
	plan, err := core.SelectChecked(method, *cacheBytes / *elemSize, di, dj, st)
	if err != nil {
		fail(err)
	}
	fmt.Printf("// stencil: trims (%d, %d), array-tile depth %d; array %dx%dxM\n",
		st.TrimI, st.TrimJ, st.Depth, di, dj)
	fmt.Printf("// %s plan: tile %v, padded dims %dx%d (pads +%d, +%d)\n",
		method, plan.Tile, plan.DI, plan.DJ, plan.DI-di, plan.DJ-dj)
	if *planOnly {
		return
	}
	if *showIR {
		fmt.Println("// source nest:")
		comment(nest.String())
	}
	tiled, err := transform.ApplyPlan(nest, plan)
	if err != nil {
		fail(err)
	}
	if *showIR {
		fmt.Println("// transformed nest:")
		comment(tiled.String())
	}
	if *certify {
		if err := deps.Certify(nest, tiled); err != nil {
			fail(err)
		}
		fmt.Println("// certified: the transformed nest preserves every dependence of the original")
	}
	code, err := transform.GenGo(tiled, name)
	if err != nil {
		fail(err)
	}
	fmt.Print(code)
}

// kernelNest builds a built-in kernel's nest at the -param sizes N and K,
// with the kernel's function name unless one was given.
func kernelNest(kernelName string, params paramList, funcName string) (*ir.Nest, string, error) {
	n, k := 300, 30
	if v, ok := params["N"]; ok {
		n = v
	}
	if v, ok := params["K"]; ok {
		k = v
	}
	kernel, err := stencil.ParseKernel(kernelName)
	if err != nil {
		return nil, "", err
	}
	var nest *ir.Nest
	var name string
	switch kernel {
	case stencil.Jacobi:
		nest, name = ir.JacobiNest(n, k), "jacobiTiled"
	case stencil.Resid:
		nest, name = ir.ResidNest(n, k), "residTiled"
	default:
		return nil, "", fmt.Errorf("fc: %v has data-dependent control flow the IR does not model; use jacobi or resid", kernel)
	}
	if funcName != "" {
		name = funcName
	}
	return nest, name, nil
}

// compileFusedPair handles the two-nest program: compute the minimum
// legal shift, fuse, and emit the fused function.
func compileFusedPair(prog *lang.Program, funcName string, showIR bool) {
	n1, n2 := prog.Nests[0], prog.Nests[1]
	shift, err := transform.MinLegalShift(n1, n2)
	if err != nil {
		fail(err)
	}
	fmt.Printf("// two nests: fusing with minimum legal shift %d\n\n", shift)
	if showIR {
		fmt.Println("// first nest:")
		comment(n1.String())
		fmt.Println("// second nest:")
		comment(n2.String())
	}
	fused, err := transform.FuseShifted(n1, n2, shift)
	if err != nil {
		fail(err)
	}
	code, err := fused.GenGo(funcName)
	if err != nil {
		fail(err)
	}
	fmt.Print(code)
}

// lowerDims infers the array extents in the two inner dimensions from
// the inner loops' ranges, re-adding the boundary layers the loop bounds
// exclude (a loop 1..n-2 over a +/-1 stencil implies extent n).
func lowerDims(n *ir.Nest, st core.Stencil) (di, dj int, err error) {
	if len(n.Loops) != 3 {
		return 0, 0, fmt.Errorf("fc: need a 3-deep nest, got %d loops", len(n.Loops))
	}
	extent := func(l ir.Loop, trim int) int {
		lo := l.Lo.Exprs[0].Const
		hi := l.Hi.Exprs[0].Const
		return hi - lo + 1 + trim
	}
	return extent(n.Loops[2], st.TrimI), extent(n.Loops[1], st.TrimJ), nil
}

func readSource(arg string) (string, error) {
	if arg == "" || arg == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(arg)
	return string(b), err
}

func comment(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Println("//   " + line)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
