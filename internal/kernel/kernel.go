// Package kernel is the pluggable compute-kernel API of the serving
// path. A fitted model's parameters are compiled once into an immutable
// CompiledKernel; the kernel then exposes allocation-free
// destination-passing transforms (TransformRowInto, ProbabilitiesInto,
// TransformInto) that the HTTP handlers run per request. Compilation
// separates the per-model work (validating, laying parameters out
// contiguously, precomputing prototype norms, optionally narrowing to
// float32) from the per-row work, so the hot loop touches exactly one
// contiguous parameter block and no allocator.
//
// Two dtypes are supported:
//
//   - Float64 (the default) reproduces the training-side arithmetic
//     bit-for-bit: distances, memberships and prototype mixes are
//     computed in exactly the operation order of ifair.Model /
//     lfr.Model, so a compiled kernel's output is bit-identical to the
//     model's own Transform for every worker count.
//   - Float32 is an opt-in serving representation that halves the
//     parameter and scratch bandwidth. For the common p=2, non-rooted
//     distance it uses the fused norm form
//     ‖x−v‖²_α = ‖x‖²_α − 2·x·(α∘v) + ‖v‖²_α with the α-scaled
//     prototypes and their norms precomputed at compile time. Outputs
//     agree with the Float64 path to within
//     ~2e-3 absolute for standardised data (records and prototypes of
//     magnitude ≲ 4, attribute weights ≲ 4); the parity bound is
//     asserted by the package tests. Float32 outputs are likewise
//     bit-identical across worker counts, just not across dtypes.
//
// Aliasing contract (shared by every *Into method in this package): dst
// is fully overwritten, must not alias the input x, and is owned by the
// caller — the kernel never retains it after the call returns. Internal
// scratch comes from a per-kernel sync.Pool and never escapes, so a
// kernel is safe for concurrent use and steady-state calls perform zero
// heap allocations (TransformInto spawns goroutines, and therefore
// allocates, only when workers > 1).
package kernel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/par"
)

// DType selects the numeric representation a kernel is compiled to.
type DType uint8

const (
	// Float64 keeps the training-side float64 arithmetic (bit-identical
	// to the model's own transform).
	Float64 DType = iota
	// Float32 narrows parameters and scratch to float32 for ~2× memory
	// bandwidth, within the documented tolerance of the Float64 path.
	Float32
)

// String returns the dtype name.
func (d DType) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return "unknown"
	}
}

// Membership selects how prototype distances become membership weights.
type Membership uint8

const (
	// Exp is the softmax weighting u_k ∝ exp(−d_k) (iFair Def. 8, LFR).
	Exp Membership = iota
	// Inverse is the heavy-tailed weighting u_k ∝ 1/(1+d_k).
	Inverse
)

// Kernel is the per-row compute interface the serving tier consumes.
// Implementations are immutable after compilation and safe for
// concurrent use; all methods follow the package aliasing contract.
type Kernel interface {
	// Dims returns the input dimensionality.
	Dims() int
	// OutDims returns the output dimensionality of TransformRowInto.
	OutDims() int
	// TransformRowInto writes the transformed record x into dst, which
	// must have length OutDims and must not alias x.
	TransformRowInto(dst, x []float64) error
	// TransformInto transforms every row of x into the matching row of
	// dst using up to workers goroutines. Rows are chunk-exclusive, so
	// the result is bit-identical for every worker count. dst must be
	// x.Rows()×OutDims and must not share backing storage with x.
	TransformInto(dst, x *mat.Dense, workers int) error
}

// PrototypeKernel is implemented by prototype-mixture kernels that also
// expose per-row membership distributions.
type PrototypeKernel interface {
	Kernel
	// K returns the number of prototypes.
	K() int
	// ProbabilitiesInto writes the membership distribution of x into
	// dst, which must have length K and must not alias x.
	ProbabilitiesInto(dst, x []float64) error
}

// Spec describes a prototype-mixture kernel to compile: K prototype
// vectors, an optional attribute weight vector for the distance, the
// Minkowski exponent, and the membership weighting.
type Spec struct {
	// Prototypes is the K×N prototype matrix (copied at compile time).
	Prototypes *mat.Dense
	// Alpha is the non-negative attribute weight vector of the distance
	// (length N); nil means unweighted (all ones), as used by LFR.
	Alpha []float64
	// P is the Minkowski exponent (≥ 1; 2 is the fast path).
	P float64
	// TakeRoot applies the 1/p root to distances.
	TakeRoot bool
	// Membership selects Exp (softmax) or Inverse weighting.
	Membership Membership
}

// scratch is the pooled per-call workspace of a CompiledKernel. Every
// field is sized at compile time, so Get never grows a slice.
type scratch struct {
	u []float64 // K membership weights (float64 path)
	// float32 staging (allocated only for Float32 kernels)
	x32   []float32 // N input row
	u32   []float32 // K memberships
	out32 []float32 // N output accumulator
}

// CompiledKernel is an immutable prototype-mixture kernel: the model
// parameters laid out contiguously plus the precomputed quantities the
// fused per-row loop needs. Compile once per model (the registry does
// this per loaded entry); the kernel itself is safe for concurrent use
// and allocation-free per call.
type CompiledKernel struct {
	k, n       int
	p          float64
	takeRoot   bool
	membership Membership
	dtype      DType

	// Float64 representation: a contiguous row-major K×N prototype copy
	// and the (possibly nil) weight vector, evaluated in exactly the
	// training-side operation order.
	protos []float64
	alpha  []float64

	// Float32 representation (dtype == Float32 only). scaled32 holds the
	// α-scaled prototypes α∘v_k and vnorm32 their weighted squared norms
	// ‖v_k‖²_α, so the p=2 fused path needs one dot product per
	// prototype. protos32/alpha32 serve the general-p fallback and the
	// final prototype mix.
	protos32 []float32
	scaled32 []float32
	vnorm32  []float32
	alpha32  []float32
	fast32   bool // p == 2 && !takeRoot: use the norm form

	pool sync.Pool // *scratch
}

// Compile validates spec and lays it out as an immutable kernel. The
// spec's prototype matrix and alpha slice are copied; mutating them
// afterwards does not affect the kernel.
func Compile(spec Spec, dtype DType) (*CompiledKernel, error) {
	if spec.Prototypes == nil {
		return nil, fmt.Errorf("kernel: spec has no prototypes")
	}
	k, n := spec.Prototypes.Dims()
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("kernel: invalid prototype dimensions %d×%d", k, n)
	}
	if spec.Alpha != nil && len(spec.Alpha) != n {
		return nil, fmt.Errorf("kernel: alpha length %d does not match N=%d", len(spec.Alpha), n)
	}
	for i, a := range spec.Alpha {
		if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
			return nil, fmt.Errorf("kernel: invalid attribute weight alpha[%d]=%v", i, a)
		}
	}
	for i, v := range spec.Prototypes.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("kernel: non-finite prototype entry %d: %v", i, v)
		}
	}
	p := spec.P
	if p == 0 {
		p = 2
	}
	if math.IsNaN(p) || p < 1 {
		return nil, fmt.Errorf("kernel: minkowski exponent p=%v, want p ≥ 1", p)
	}
	if spec.Membership != Exp && spec.Membership != Inverse {
		return nil, fmt.Errorf("kernel: unknown membership weighting %d", spec.Membership)
	}
	if dtype != Float64 && dtype != Float32 {
		return nil, fmt.Errorf("kernel: unknown dtype %d", dtype)
	}

	ck := &CompiledKernel{
		k: k, n: n, p: p, takeRoot: spec.TakeRoot,
		membership: spec.Membership, dtype: dtype,
		protos: append([]float64(nil), spec.Prototypes.Data()...),
	}
	if spec.Alpha != nil {
		ck.alpha = append([]float64(nil), spec.Alpha...)
	}
	if dtype == Float32 {
		ck.fast32 = p == 2 && !spec.TakeRoot
		ck.protos32 = make([]float32, k*n)
		ck.scaled32 = make([]float32, k*n)
		ck.vnorm32 = make([]float32, k)
		ck.alpha32 = make([]float32, n)
		for j := range ck.alpha32 {
			if ck.alpha == nil {
				ck.alpha32[j] = 1
			} else {
				ck.alpha32[j] = float32(ck.alpha[j])
			}
		}
		for i := 0; i < k; i++ {
			var norm float32
			for j := 0; j < n; j++ {
				v := float32(ck.protos[i*n+j])
				ck.protos32[i*n+j] = v
				ck.scaled32[i*n+j] = ck.alpha32[j] * v
				norm += ck.alpha32[j] * v * v
			}
			ck.vnorm32[i] = norm
		}
	}
	ck.pool.New = func() any {
		s := &scratch{u: make([]float64, ck.k)}
		if ck.dtype == Float32 {
			s.x32 = make([]float32, ck.n)
			s.u32 = make([]float32, ck.k)
			s.out32 = make([]float32, ck.n)
		}
		return s
	}
	return ck, nil
}

// K returns the number of prototypes.
func (ck *CompiledKernel) K() int { return ck.k }

// Dims returns the input dimensionality.
func (ck *CompiledKernel) Dims() int { return ck.n }

// OutDims returns the output dimensionality (equal to Dims: the
// transform is a convex combination of prototypes).
func (ck *CompiledKernel) OutDims() int { return ck.n }

// DType returns the numeric representation the kernel was compiled to.
func (ck *CompiledKernel) DType() DType { return ck.dtype }

// proto returns prototype row i of the float64 representation.
func (ck *CompiledKernel) proto(i int) []float64 {
	return ck.protos[i*ck.n : (i+1)*ck.n]
}

func (ck *CompiledKernel) checkRow(x []float64) error {
	if len(x) != ck.n {
		return fmt.Errorf("kernel: record has %d attributes, kernel expects %d", len(x), ck.n)
	}
	return nil
}

// dist64 is the weighted Minkowski distance in the exact operation
// order of the training-side model (ifair.kernelDistance; a nil alpha
// matches LFR's unweighted mat.SqDist).
func (ck *CompiledKernel) dist64(x, v []float64) float64 {
	var s float64
	if ck.p == 2 {
		if ck.alpha == nil {
			for j := range x {
				d := x[j] - v[j]
				s += d * d
			}
		} else {
			for j := range x {
				d := x[j] - v[j]
				s += ck.alpha[j] * d * d
			}
		}
	} else {
		if ck.alpha == nil {
			for j := range x {
				s += math.Pow(math.Abs(x[j]-v[j]), ck.p)
			}
		} else {
			for j := range x {
				s += ck.alpha[j] * math.Pow(math.Abs(x[j]-v[j]), ck.p)
			}
		}
	}
	if ck.takeRoot {
		return math.Pow(s, 1/ck.p)
	}
	return s
}

// probabilitiesInto64 writes the float64 membership distribution of x
// into u (length k), mirroring ifair.Model.probabilitiesInto bit for
// bit.
func (ck *CompiledKernel) probabilitiesInto64(u, x []float64) {
	switch ck.membership {
	case Inverse:
		var sum float64
		for j := 0; j < ck.k; j++ {
			d := ck.dist64(x, ck.proto(j))
			u[j] = 1 / (1 + d)
			sum += u[j]
		}
		for j := range u {
			u[j] /= sum
		}
	default: // Exp
		maxZ := math.Inf(-1)
		for j := 0; j < ck.k; j++ {
			z := -ck.dist64(x, ck.proto(j))
			u[j] = z
			if z > maxZ {
				maxZ = z
			}
		}
		var sum float64
		for j := range u {
			u[j] = math.Exp(u[j] - maxZ)
			sum += u[j]
		}
		for j := range u {
			u[j] /= sum
		}
	}
}

// dist32 computes the distance of the staged record s.x32 to prototype
// row i in float32. The p=2 fused path uses the precomputed α-scaled
// prototypes and norms: d = ‖x‖²_α − 2·x·(α∘v) + ‖v‖²_α, where xnorm is
// computed once per record by the caller.
func (ck *CompiledKernel) dist32(s *scratch, i int, xnorm float32) float32 {
	if ck.fast32 {
		row := ck.scaled32[i*ck.n : (i+1)*ck.n]
		var dot float32
		for j, xv := range s.x32 {
			dot += xv * row[j]
		}
		return xnorm - 2*dot + ck.vnorm32[i]
	}
	row := ck.protos32[i*ck.n : (i+1)*ck.n]
	var d float32
	if ck.p == 2 {
		for j, xv := range s.x32 {
			dv := xv - row[j]
			d += ck.alpha32[j] * dv * dv
		}
	} else {
		for j, xv := range s.x32 {
			d += ck.alpha32[j] * float32(math.Pow(math.Abs(float64(xv-row[j])), ck.p))
		}
	}
	if ck.takeRoot {
		return float32(math.Pow(float64(d), 1/ck.p))
	}
	return d
}

// probabilitiesInto32 stages x as float32 and writes the membership
// distribution into s.u32.
func (ck *CompiledKernel) probabilitiesInto32(s *scratch, x []float64) {
	for j, v := range x {
		s.x32[j] = float32(v)
	}
	var xnorm float32
	if ck.fast32 {
		for j, xv := range s.x32 {
			xnorm += ck.alpha32[j] * xv * xv
		}
	}
	switch ck.membership {
	case Inverse:
		var sum float32
		for j := 0; j < ck.k; j++ {
			d := ck.dist32(s, j, xnorm)
			s.u32[j] = 1 / (1 + d)
			sum += s.u32[j]
		}
		for j := range s.u32 {
			s.u32[j] /= sum
		}
	default: // Exp
		maxZ := float32(math.Inf(-1))
		for j := 0; j < ck.k; j++ {
			z := -ck.dist32(s, j, xnorm)
			s.u32[j] = z
			if z > maxZ {
				maxZ = z
			}
		}
		var sum float32
		for j := range s.u32 {
			s.u32[j] = float32(math.Exp(float64(s.u32[j] - maxZ)))
			sum += s.u32[j]
		}
		for j := range s.u32 {
			s.u32[j] /= sum
		}
	}
}

// ProbabilitiesInto writes the membership distribution of x into dst
// (length K). dst must not alias x; it is fully overwritten and never
// retained.
func (ck *CompiledKernel) ProbabilitiesInto(dst, x []float64) error {
	if err := ck.checkRow(x); err != nil {
		return err
	}
	if len(dst) != ck.k {
		return fmt.Errorf("kernel: destination has %d cells, want K=%d", len(dst), ck.k)
	}
	if ck.dtype == Float32 {
		s := ck.pool.Get().(*scratch)
		ck.probabilitiesInto32(s, x)
		for j, v := range s.u32 {
			dst[j] = float64(v)
		}
		ck.pool.Put(s)
		return nil
	}
	ck.probabilitiesInto64(dst, x)
	return nil
}

// transformRowInto runs the fused membership + prototype-mix for one
// record using the given scratch.
func (ck *CompiledKernel) transformRowInto(s *scratch, dst, x []float64) {
	if ck.dtype == Float32 {
		ck.probabilitiesInto32(s, x)
		for j := range s.out32 {
			s.out32[j] = 0
		}
		for i, ui := range s.u32 {
			row := ck.protos32[i*ck.n : (i+1)*ck.n]
			for j, v := range row {
				s.out32[j] += ui * v
			}
		}
		for j, v := range s.out32 {
			dst[j] = float64(v)
		}
		return
	}
	ck.probabilitiesInto64(s.u, x)
	for j := range dst {
		dst[j] = 0
	}
	for i, ui := range s.u {
		row := ck.proto(i)
		for j, v := range row {
			dst[j] += ui * v
		}
	}
}

// TransformRowInto writes the transformed record x̃ = Σ_k u_k·v_k into
// dst (length Dims). dst must not alias x; it is fully overwritten and
// never retained.
func (ck *CompiledKernel) TransformRowInto(dst, x []float64) error {
	if err := ck.checkRow(x); err != nil {
		return err
	}
	if len(dst) != ck.n {
		return fmt.Errorf("kernel: destination has %d cells, want N=%d", len(dst), ck.n)
	}
	s := ck.pool.Get().(*scratch)
	ck.transformRowInto(s, dst, x)
	ck.pool.Put(s)
	return nil
}

// TransformInto transforms every row of x into the matching row of dst
// using up to workers goroutines. Each output row is written by exactly
// one goroutine with the same per-row arithmetic as TransformRowInto,
// so the result is bit-identical for every worker count. dst must be
// x.Rows()×Dims and must not share backing storage with x; it is fully
// overwritten and never retained. workers ≤ 1 runs inline and performs
// zero allocations.
func (ck *CompiledKernel) TransformInto(dst, x *mat.Dense, workers int) error {
	rows, cols := x.Dims()
	if cols != ck.n {
		return fmt.Errorf("kernel: data has %d attributes, kernel expects %d", cols, ck.n)
	}
	if dr, dc := dst.Dims(); dr != rows || dc != ck.n {
		return fmt.Errorf("kernel: destination is %d×%d, want %d×%d", dr, dc, rows, ck.n)
	}
	if workers <= 1 {
		s := ck.pool.Get().(*scratch)
		for i := 0; i < rows; i++ {
			ck.transformRowInto(s, dst.Row(i), x.Row(i))
		}
		ck.pool.Put(s)
		return nil
	}
	par.Chunks(rows).Run(workers, func(_, lo, hi int) {
		s := ck.pool.Get().(*scratch)
		for i := lo; i < hi; i++ {
			ck.transformRowInto(s, dst.Row(i), x.Row(i))
		}
		ck.pool.Put(s)
	})
	return nil
}
