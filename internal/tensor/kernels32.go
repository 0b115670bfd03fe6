package tensor

// Float32 matmul kernels. They keep the float64 kernels' cache blocking
// (mmKBlock k-panels) and zero-skip, but run their row updates through
// width-unrolled primitives that dispatch to AVX2 on capable hardware
// (simd_amd64.s): each pass applies four a-coefficients to a dst row, so
// eight multiply-adds retire per 8-lane step against five vector loads and
// one store. Combined with halved element width this is where the ≥1.5×
// win over the scalar float64 kernels comes from.
//
// Determinism: every dst element is accumulated in k-ascending groups of
// four with one rounding per add, using the same expression shape in the
// vector path, the scalar tail, and the pure-Go fallback — no FMA anywhere
// — so results are bit-identical across worker counts, and across the
// vectorized and scalar code paths.

// mmRowGroup32 applies one k-group of four a-coefficients to a dst row:
// drow[j] = (((drow[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j].
func mmRowGroup32(drow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	if vecEnabled {
		axpy4x32(drow, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	_ = b0[len(drow)-1]
	_ = b1[len(drow)-1]
	_ = b2[len(drow)-1]
	_ = b3[len(drow)-1]
	for j, d := range drow {
		drow[j] = d + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// mmRowSingle32 applies a single a-coefficient: drow[j] += av*brow[j].
func mmRowSingle32(drow []float32, av float32, brow []float32) {
	if vecEnabled {
		axpy1x32(drow, brow, av)
		return
	}
	for j, bv := range brow {
		drow[j] += av * bv
	}
}

var matmulBias32Tasks = Tasks[mmArgs]{Fn: func(m *mmArgs, i0, i1 int) {
	matmulBias32Range(m.dst, m.a, m.b, m.bias, i0, i1)
}}

// matmulBias32 computes dst = a×b (+ bias) over float32 storage.
func matmulBias32(dst, a, b, bias *Mat) {
	work := 2 * a.R * a.C * b.C
	if runsInline(a.R, work) {
		matmulBias32Range(dst, a, b, bias, 0, a.R)
		return
	}
	matmulBias32Tasks.Parallel(a.R, work, mmArgs{dst, a, b, bias})
}

// matmulBias32Range applies the kernel to dst rows [i0, i1).
func matmulBias32Range(dst, a, b, bias *Mat, i0, i1 int) {
	kk, n := a.C, b.C
	for i := i0; i < i1; i++ {
		drow := dst.V32[i*n : i*n+n]
		if bias == nil {
			clear(drow)
		} else {
			copy(drow, bias.V32)
		}
	}
	for k0 := 0; k0 < kk; k0 += mmKBlock {
		k1 := min(k0+mmKBlock, kk)
		kEnd := k0 + (k1-k0)&^3 // last full group of four in this block
		for i := i0; i < i1; i++ {
			arow := a.V32[i*kk : i*kk+kk]
			drow := dst.V32[i*n : i*n+n]
			for k := k0; k < kEnd; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					// ReLU activations feed these kernels: whole-zero
					// groups are common enough to be worth skipping.
					continue
				}
				mmRowGroup32(drow,
					a0, a1, a2, a3,
					b.V32[k*n:k*n+n], b.V32[(k+1)*n:(k+1)*n+n],
					b.V32[(k+2)*n:(k+2)*n+n], b.V32[(k+3)*n:(k+3)*n+n])
			}
			for k := kEnd; k < k1; k++ {
				if av := arow[k]; av != 0 {
					mmRowSingle32(drow, av, b.V32[k*n:k*n+n])
				}
			}
		}
	}
}

var matmulAT32Tasks = Tasks[mmArgs]{Fn: func(m *mmArgs, i0, i1 int) {
	matmulAT32Range(m.dst, m.a, m.b, i0, i1)
}}

// matmulAT32 computes dst = aᵀ×b over float32 storage. Structure mirrors
// the float64 matmulAT: the a-coefficients are strided column loads, the
// dst-row accumulation order is identical to matmulBias32's.
func matmulAT32(dst, a, b *Mat) {
	m := a.C
	work := 2 * m * a.R * b.C
	if runsInline(m, work) {
		matmulAT32Range(dst, a, b, 0, m)
		return
	}
	matmulAT32Tasks.Parallel(m, work, mmArgs{dst: dst, a: a, b: b})
}

// matmulAT32Range applies the aᵀ×b kernel to dst rows [i0, i1).
func matmulAT32Range(dst, a, b *Mat, i0, i1 int) {
	kk, m, n := a.R, a.C, b.C
	for i := i0; i < i1; i++ {
		drow := dst.V32[i*n : i*n+n]
		for j := range drow {
			drow[j] = 0
		}
	}
	for k0 := 0; k0 < kk; k0 += mmKBlock {
		k1 := k0 + mmKBlock
		if k1 > kk {
			k1 = kk
		}
		kEnd := k0 + (k1-k0)&^3
		for i := i0; i < i1; i++ {
			drow := dst.V32[i*n : i*n+n]
			for k := k0; k < kEnd; k += 4 {
				a0 := a.V32[k*m+i]
				a1 := a.V32[(k+1)*m+i]
				a2 := a.V32[(k+2)*m+i]
				a3 := a.V32[(k+3)*m+i]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				mmRowGroup32(drow,
					a0, a1, a2, a3,
					b.V32[k*n:k*n+n], b.V32[(k+1)*n:(k+1)*n+n],
					b.V32[(k+2)*n:(k+2)*n+n], b.V32[(k+3)*n:(k+3)*n+n])
			}
			for k := kEnd; k < k1; k++ {
				av := a.V32[k*m+i]
				if av == 0 {
					continue
				}
				mmRowSingle32(drow, av, b.V32[k*n:k*n+n])
			}
		}
	}
}

var matmulBT32Tasks = Tasks[mmArgs]{Fn: func(m *mmArgs, i0, i1 int) {
	matmulBT32Range(m.dst, m.a, m.b, i0, i1)
}}

// matmulBT32 computes dst = a×bᵀ over float32 storage with the same 2×2
// register tile as the float64 kernel: two a rows against two b rows share
// every operand load across four independent accumulation chains. The dot
// shapes this kernel serves (gradient reductions over long k) have no
// row-major b panel to stream, so it stays scalar.
func matmulBT32(dst, a, b *Mat) {
	work := 2 * a.R * a.C * b.R
	if runsInline(a.R, work) {
		matmulBT32Range(dst, a, b, 0, a.R)
		return
	}
	matmulBT32Tasks.Parallel(a.R, work, mmArgs{dst: dst, a: a, b: b})
}

// matmulBT32Range applies the a×bᵀ kernel to dst rows [i0, i1).
func matmulBT32Range(dst, a, b *Mat, i0, i1 int) {
	kk, n := a.C, b.R
	i := i0
	for ; i+1 < i1; i += 2 {
		ar0 := a.V32[i*kk : i*kk+kk]
		ar1 := a.V32[(i+1)*kk : (i+1)*kk+kk]
		dr0 := dst.V32[i*n : i*n+n]
		dr1 := dst.V32[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+1 < n; j += 2 {
			br0 := b.V32[j*kk : j*kk+kk]
			br1 := b.V32[(j+1)*kk : (j+1)*kk+kk]
			var s00, s01, s10, s11 float32
			for k, a0 := range ar0 {
				a1 := ar1[k]
				b0 := br0[k]
				b1 := br1[k]
				s00 += a0 * b0
				s01 += a0 * b1
				s10 += a1 * b0
				s11 += a1 * b1
			}
			dr0[j] = s00
			dr0[j+1] = s01
			dr1[j] = s10
			dr1[j+1] = s11
		}
		if j < n {
			brow := b.V32[j*kk : j*kk+kk]
			dr0[j] = dotSeq32(ar0, brow)
			dr1[j] = dotSeq32(ar1, brow)
		}
	}
	if i < i1 {
		arow := a.V32[i*kk : i*kk+kk]
		drow := dst.V32[i*n : i*n+n]
		for j := 0; j < n; j++ {
			drow[j] = dotSeq32(arow, b.V32[j*kk:j*kk+kk])
		}
	}
}

// dotSeq32 is the single-chain float32 inner product used by the 2×2 tile's
// edge rows and columns, fixing each dst element's accumulation order
// independent of the row partition (see dotSeq).
func dotSeq32(a, b []float32) float32 {
	var s float32
	for k, av := range a {
		s += av * b[k]
	}
	return s
}
