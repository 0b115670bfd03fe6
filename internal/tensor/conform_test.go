package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Backend conformance: one shared table of kernel cases runs against every
// registered backend, so a new backend cannot pass the suite without
// matching the float64 reference semantics — transpose variants, bias
// fusion, shape validation, and the edge shapes that exercise unroll tails
// (k not a multiple of 4, odd row counts that break the 2-row pairing,
// single-row and single-column operands).

// naiveRef computes the requested product in float64 with a plain triple
// loop, reading operands through the dtype-agnostic At accessor. It is the
// ground truth every backend is compared against.
func naiveRef(op string, a, b, bias *Mat) *Mat {
	var m, k, n int
	switch op {
	case "matmul", "matmulBias":
		m, k, n = a.R, a.C, b.C
	case "matmulAT":
		m, k, n = a.C, a.R, b.C
	case "matmulBT":
		m, k, n = a.R, a.C, b.R
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				switch op {
				case "matmul", "matmulBias":
					s += a.At(i, kk) * b.At(kk, j)
				case "matmulAT":
					s += a.At(kk, i) * b.At(kk, j)
				case "matmulBT":
					s += a.At(i, kk) * b.At(j, kk)
				}
			}
			if bias != nil {
				s += bias.At(0, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// conformShapes covers the unroll edges: R or C = 1, k below / straddling /
// far beyond the 4-wide unroll, odd rows (2-row pairing tail), odd columns
// (2×2 BT tile edge), and a k-depth crossing the mmKBlock cache panel.
func conformShapes() []struct{ m, k, n int } {
	return []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 7, 5},
		{5, 1, 3},
		{3, 4, 1},
		{2, 8, 6},
		{7, 9, 11}, // odd everything: pairing + tile edges + k tail
		{4, 5, 8},
		{8, mmKBlock + 3, 4}, // k panel boundary plus remainder
		{16, 32, 16},
	}
}

// tolFor scales the comparison tolerance to the backend's precision: the
// float64 backend must reproduce the naive reference near-exactly (it sums
// in a different order, so allow bottom-bit noise), float32 rounds each of
// ~k accumulation steps to 24 bits.
func tolFor(dt DType, k int) float64 {
	if dt == F32 {
		return 1e-5 * float64(k+1)
	}
	return 1e-12 * float64(k+1)
}

func TestBackendConformance(t *testing.T) {
	ops := []string{"matmul", "matmulBias", "matmulAT", "matmulBT"}
	for _, bk := range Backends() {
		dt := bk.DType()
		for _, op := range ops {
			for _, s := range conformShapes() {
				t.Run(fmt.Sprintf("%s/%s/%dx%dx%d", bk.Name(), op, s.m, s.k, s.n), func(t *testing.T) {
					rng := NewRNG(42)
					var a, b, bias *Mat
					switch op {
					case "matmulAT":
						a = randFilled(dt, s.k, s.m, rng)
						b = randFilled(dt, s.k, s.n, rng)
					case "matmulBT":
						a = randFilled(dt, s.m, s.k, rng)
						b = randFilled(dt, s.n, s.k, rng)
					default:
						a = randFilled(dt, s.m, s.k, rng)
						b = randFilled(dt, s.k, s.n, rng)
					}
					if op == "matmulBias" {
						bias = randFilled(dt, 1, s.n, rng)
					}
					dst := NewOf(dt, s.m, s.n)
					runKernel(op, dst, a, b, bias)
					want := naiveRef(op, a, b, bias)
					tol := tolFor(dt, s.k)
					for i := 0; i < s.m; i++ {
						for j := 0; j < s.n; j++ {
							got, ref := dst.At(i, j), want.At(i, j)
							if math.Abs(got-ref) > tol*math.Max(1, math.Abs(ref)) {
								t.Fatalf("(%d,%d): got %v, want %v (tol %v)", i, j, got, ref, tol)
							}
						}
					}
				})
			}
		}
	}
}

func randFilled(dt DType, r, c int, rng *RNG) *Mat {
	m := NewOf(dt, r, c)
	rng.FillNormal(m, 1)
	// Sprinkle zeros so the zero-skip fast paths execute under the
	// conformance comparison too.
	for i := 0; i < m.Len(); i += 7 {
		m.Set(i/c, i%c, 0)
	}
	return m
}

func runKernel(op string, dst, a, b, bias *Mat) {
	switch op {
	case "matmul":
		MatMulInto(dst, a, b)
	case "matmulBias":
		MatMulBiasInto(dst, a, b, bias)
	case "matmulAT":
		MatMulATInto(dst, a, b)
	case "matmulBT":
		MatMulBTInto(dst, a, b)
	}
}

// TestBackendDeterminismAcrossWorkers pins the determinism contract: within
// one backend, kernel output bits must not depend on the parallelism level.
func TestBackendDeterminismAcrossWorkers(t *testing.T) {
	defer SetParallelism(0)
	for _, bk := range Backends() {
		dt := bk.DType()
		rng := NewRNG(7)
		a := randFilled(dt, 33, 70, rng) // odd rows, k tail, > chunk sizes
		b := randFilled(dt, 70, 37, rng)
		bias := randFilled(dt, 1, 37, rng)
		at := randFilled(dt, 70, 33, rng)
		bt := randFilled(dt, 37, 70, rng)

		type run struct{ mm, bias, at, bt *Mat }
		do := func() run {
			r := run{
				mm:   NewOf(dt, 33, 37),
				bias: NewOf(dt, 33, 37),
				at:   NewOf(dt, 33, 37),
				bt:   NewOf(dt, 33, 37),
			}
			MatMulInto(r.mm, a, b)
			MatMulBiasInto(r.bias, a, b, bias)
			MatMulATInto(r.at, at, b)
			MatMulBTInto(r.bt, a, bt)
			return r
		}
		SetParallelism(1)
		ref := do()
		for _, workers := range []int{4, 8} {
			SetParallelism(workers)
			got := do()
			for name, pair := range map[string][2]*Mat{
				"matmul":     {ref.mm, got.mm},
				"matmulBias": {ref.bias, got.bias},
				"matmulAT":   {ref.at, got.at},
				"matmulBT":   {ref.bt, got.bt},
			} {
				if !bitsEqual(pair[0], pair[1]) {
					t.Errorf("%s/%s: workers=%d differs from workers=1", bk.Name(), name, workers)
				}
			}
		}
	}
}

func bitsEqual(a, b *Mat) bool {
	if a.R != b.R || a.C != b.C || a.DType() != b.DType() {
		return false
	}
	for i, v := range a.V {
		if math.Float64bits(v) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	for i, v := range a.V32 {
		if math.Float32bits(v) != math.Float32bits(b.V32[i]) {
			return false
		}
	}
	return true
}

// TestVectorizedScalarBitIdentity pins the strongest float32 invariant:
// the AVX2 paths and the pure-Go scalar fallback accumulate in the same
// order with the same per-op rounding (no FMA), so toggling vectorization
// must not change one output bit.
func TestVectorizedScalarBitIdentity(t *testing.T) {
	wasOn := Vectorized()
	if !setVectorized(true) {
		t.Skip("SIMD unsupported on this platform")
	}
	defer setVectorized(wasOn)
	rng := NewRNG(11)
	a := randFilled(F32, 21, 75, rng)
	b := randFilled(F32, 75, 19, rng)
	bias := randFilled(F32, 1, 19, rng)
	at := randFilled(F32, 75, 21, rng)

	do := func() [3]*Mat {
		mm := NewOf(F32, 21, 19)
		mb := NewOf(F32, 21, 19)
		atd := NewOf(F32, 21, 19)
		MatMulInto(mm, a, b)
		MatMulBiasInto(mb, a, b, bias)
		MatMulATInto(atd, at, b)
		return [3]*Mat{mm, mb, atd}
	}
	vec := do()
	setVectorized(false)
	scalar := do()
	for i, name := range []string{"matmul", "matmulBias", "matmulAT"} {
		if !bitsEqual(vec[i], scalar[i]) {
			t.Errorf("%s: vectorized and scalar paths disagree bitwise", name)
		}
	}
}

// TestKernelShapeErrors verifies shape validation fires identically for
// every backend — the checks live above the seam, so a mismatched operand
// panics before any kernel runs.
func TestKernelShapeErrors(t *testing.T) {
	for _, bk := range Backends() {
		dt := bk.DType()
		cases := []struct {
			name string
			fn   func()
		}{
			{"matmul-inner", func() { MatMulInto(NewOf(dt, 2, 2), NewOf(dt, 2, 3), NewOf(dt, 2, 2)) }},
			{"matmul-dst", func() { MatMulInto(NewOf(dt, 3, 2), NewOf(dt, 2, 3), NewOf(dt, 3, 2)) }},
			{"bias-len", func() {
				MatMulBiasInto(NewOf(dt, 2, 2), NewOf(dt, 2, 3), NewOf(dt, 3, 2), NewOf(dt, 1, 3))
			}},
			{"at", func() { MatMulATInto(NewOf(dt, 2, 2), NewOf(dt, 3, 2), NewOf(dt, 2, 2)) }},
			{"bt", func() { MatMulBTInto(NewOf(dt, 2, 2), NewOf(dt, 2, 3), NewOf(dt, 2, 2)) }},
		}
		for _, tc := range cases {
			t.Run(bk.Name()+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatal("expected shape panic")
					}
				}()
				tc.fn()
			})
		}
	}
}

// TestKernelDTypeMismatch verifies mixing dtypes across operands panics
// instead of silently reading a nil storage slice.
func TestKernelDTypeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dtype mismatch panic")
		}
	}()
	MatMulInto(New(2, 2), NewOf(F32, 2, 3), NewOf(F32, 3, 2))
}

// orderRef is the plain loop the matmulBias kernels must reproduce bit for
// bit: every element starts from its bias (or zero), then adds k in
// ascending order, four at a time from each mmKBlock start and singly in
// the block's tail, skipping all-zero groups and zero singles of a, with
// one rounding per add.
func orderRef[T float32 | float64](av, bv, bias []T, m, kk, n int) []T {
	dst := make([]T, m*n)
	for i := 0; i < m; i++ {
		drow := dst[i*n : i*n+n]
		if bias != nil {
			copy(drow, bias)
		}
		arow := av[i*kk : i*kk+kk]
		for k0 := 0; k0 < kk; k0 += mmKBlock {
			k1 := min(k0+mmKBlock, kk)
			k := k0
			for ; k+3 < k1; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				for j, d := range drow {
					drow[j] = d + a0*bv[k*n+j] + a1*bv[(k+1)*n+j] + a2*bv[(k+2)*n+j] + a3*bv[(k+3)*n+j]
				}
			}
			for ; k < k1; k++ {
				if a := arow[k]; a != 0 {
					for j := range drow {
						drow[j] += a * bv[k*n+j]
					}
				}
			}
		}
	}
	return dst
}

// TestMatMulMatchesOrderReference pins the matmulBias kernels, pooled and
// serial, to the reference accumulation order bit for bit — the order the
// blocked conv inference path relies on to match training — on wide
// products, at k-depths below and across the k-block, with all-zero groups
// and zero singles in a that must be skipped exactly as before.
func TestMatMulMatchesOrderReference(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	for _, bk := range Backends() {
		dt := bk.DType()
		for _, s := range []struct{ m, k, n int }{{5, 27, 1500}, {3, mmKBlock + 45, 700}, {7, 14, 4099}} {
			a := randMatOf(dt, s.m, s.k, 1)
			b := randMatOf(dt, s.k, s.n, 2)
			bias := randMatOf(dt, 1, s.n, 3)
			for i := 0; i < s.m; i += 2 { // zero group at k 4..7, zero single at the tail
				a.Set(i, 4, 0)
				a.Set(i, 5, 0)
				a.Set(i, 6, 0)
				a.Set(i, 7, 0)
				a.Set(i, s.k-1, 0)
			}
			var want, wantBias *Mat
			if dt == F32 {
				want = FromSlice32(s.m, s.n, orderRef(a.V32, b.V32, nil, s.m, s.k, s.n))
				wantBias = FromSlice32(s.m, s.n, orderRef(a.V32, b.V32, bias.V32, s.m, s.k, s.n))
			} else {
				want = FromSlice(s.m, s.n, orderRef(a.V, b.V, nil, s.m, s.k, s.n))
				wantBias = FromSlice(s.m, s.n, orderRef(a.V, b.V, bias.V, s.m, s.k, s.n))
			}
			for _, workers := range []int{1, 3} {
				SetParallelism(workers)
				name := fmt.Sprintf("%s/%dx%dx%d/workers=%d", bk.Name(), s.m, s.k, s.n, workers)
				got := NewOf(dt, s.m, s.n)
				MatMulInto(got, a, b)
				if !bitsEqual(got, want) {
					t.Errorf("%s: MatMulInto differs from the reference order", name)
				}
				MatMulSerialInto(got, a, b)
				if !bitsEqual(got, want) {
					t.Errorf("%s: MatMulSerialInto differs from the reference order", name)
				}
				MatMulBiasInto(got, a, b, bias)
				if !bitsEqual(got, wantBias) {
					t.Errorf("%s: MatMulBiasInto differs from the reference order", name)
				}
			}
		}
	}
}
