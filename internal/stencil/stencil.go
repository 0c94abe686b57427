// Package stencil implements the three kernel benchmarks of the paper's
// evaluation (Section 4.1) — JACOBI (6-point 3D Jacobi iteration),
// REDBLACK (3D red-black successive-over-relaxation) and RESID (the
// 27-point residual kernel of SPEC/NAS MGRID) — in every program variant
// the paper measures: the original nest, the tiled nest, and for REDBLACK
// the fused nest that tiling builds on (Figures 3, 6, 12, 13).
//
// Each variant exists twice, with identical loop structure:
//
//   - a native compute function operating on grid.Grid3D values, used for
//     wall-clock (MFlops) measurements and for the correctness tests that
//     prove the transformed variants compute exactly what the original
//     does;
//   - a loop nest in internal/ir, tiled by internal/transform, whose
//     load/store address stream internal/trace replays into the cache
//     simulator for the miss-rate simulations (trace.go).
//
// Loops are zero-based: the Fortran interior 2..N-1 becomes 1..N-2.
package stencil

import (
	"fmt"

	"tiling3d/internal/core"
)

// Kernel identifies one of the paper's three benchmarks.
type Kernel int

const (
	// Jacobi is the 6-point 3D Jacobi iteration kernel (Figure 3).
	Jacobi Kernel = iota
	// RedBlack is the 3D red-black SOR kernel (Figure 12).
	RedBlack
	// Resid is the 27-point RESID kernel from MGRID (Figure 13).
	Resid
)

// Kernels lists the paper's three benchmarks in presentation order.
func Kernels() []Kernel { return []Kernel{Jacobi, RedBlack, Resid} }

// String returns the paper's name for the kernel.
func (k Kernel) String() string {
	switch k {
	case Jacobi:
		return "JACOBI"
	case RedBlack:
		return "REDBLACK"
	case Resid:
		return "RESID"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel converts a case-insensitive kernel name to a Kernel.
func ParseKernel(s string) (Kernel, error) {
	switch {
	case equalFold(s, "jacobi"):
		return Jacobi, nil
	case equalFold(s, "redblack"):
		return RedBlack, nil
	case equalFold(s, "resid"):
		return Resid, nil
	}
	return Jacobi, fmt.Errorf("stencil: unknown kernel %q", s)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Spec returns the stencil description the selection algorithms need for
// the kernel's tiled nest.
func (k Kernel) Spec() core.Stencil {
	switch k {
	case Jacobi:
		return core.Jacobi6pt()
	case RedBlack:
		return core.RedBlackFused()
	case Resid:
		return core.Resid27pt()
	default:
		panic(fmt.Sprintf("stencil: unknown kernel %d", int(k)))
	}
}

// FlopsPerPoint returns the floating-point operations one interior point
// update performs, used to convert wall-clock time to MFlops.
func (k Kernel) FlopsPerPoint() int {
	switch k {
	case Jacobi:
		// 5 adds + 1 multiply.
		return 6
	case RedBlack:
		// 5 adds + 2 multiplies + 1 add.
		return 8
	case Resid:
		// 26 adds inside the groups + 4 multiplies + 4 subtractions.
		return 34
	default:
		panic(fmt.Sprintf("stencil: unknown kernel %d", int(k)))
	}
}

// Arrays returns the number of N x N x K arrays the kernel uses, which
// sizes the working set: JACOBI needs A and B, REDBLACK updates a single
// array in place, RESID reads U and V and writes R.
func (k Kernel) Arrays() int {
	switch k {
	case Jacobi:
		return 2
	case RedBlack:
		return 1
	case Resid:
		return 3
	default:
		panic(fmt.Sprintf("stencil: unknown kernel %d", int(k)))
	}
}

// Coeffs holds the numerical constants of the kernels. Zero value is not
// meaningful; use DefaultCoeffs.
type Coeffs struct {
	// JacobiC is the Jacobi averaging constant (1/6 solves Laplace).
	JacobiC float64
	// SorC1, SorC2 are the red-black SOR constants: C1 = 1-omega,
	// C2 = omega/6.
	SorC1, SorC2 float64
	// ResidA holds A0..A3 of the 27-point RESID stencil (face, edge and
	// corner weights). The NAS MG values are (-8/3, 0, 1/6, 1/12).
	ResidA [4]float64
}

// DefaultCoeffs returns coefficients that make all three kernels converge
// on Poisson-type problems: Jacobi averaging, SOR with omega = 1.15, and
// the NAS MG residual operator.
func DefaultCoeffs() Coeffs {
	const omega = 1.15
	return Coeffs{
		JacobiC: 1.0 / 6.0,
		SorC1:   1 - omega,
		SorC2:   omega / 6,
		ResidA:  [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0},
	}
}

// Accesses returns the number of memory accesses one interior point
// update issues (loads + the store), matching the kernel's trace nest.
func (k Kernel) Accesses() int {
	switch k {
	case Jacobi:
		return 7
	case RedBlack:
		return 8
	case Resid:
		return 29
	default:
		panic("stencil: unknown kernel")
	}
}
