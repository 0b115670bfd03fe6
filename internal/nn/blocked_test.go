package nn

import (
	"fmt"
	"math"
	"testing"

	"odin/internal/tensor"
)

// im2colRef is the original per-element im2col, kept as the reference the
// branch-free im2colInto must reproduce exactly.
func im2colRef[T float](c *Conv2D, row []T, colsV []T, colsC, off int) {
	spatial := c.OutH * c.OutW
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				base := ((ch*c.K+ky)*c.K + kx) * colsC
				crow := colsV[base+off : base+off+spatial]
				idx := 0
				for oy := 0; oy < c.OutH; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= c.InH {
						for ox := 0; ox < c.OutW; ox++ {
							crow[idx] = 0
							idx++
						}
						continue
					}
					rbase := chOff + iy*c.InW
					for ox := 0; ox < c.OutW; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix >= 0 && ix < c.InW {
							crow[idx] = row[rbase+ix]
						} else {
							crow[idx] = 0
						}
						idx++
					}
				}
			}
		}
	}
}

// im2colCase checks im2colInto against im2colRef for one geometry, with
// the sample written into the middle column block of a wider patch matrix
// pre-filled with NaN, so a missed padding write or a stray write outside
// the block shows up.
func im2colCase[T float](t *testing.T, c *Conv2D, x []T) {
	t.Helper()
	spatial := c.OutH * c.OutW
	colsC := 3 * spatial
	got := make([]T, c.patchRows()*colsC)
	want := make([]T, len(got))
	for i := range got {
		got[i] = T(math.NaN())
		want[i] = T(math.NaN())
	}
	im2colRef(c, x, want, colsC, spatial)
	im2colInto(c, x, got, colsC, spatial)
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("element %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIm2colMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(41)
	for _, g := range []struct{ inC, h, w, k, stride, pad int }{
		{3, 27, 48, 3, 2, 1}, // steady-workload first layer
		{10, 14, 24, 3, 2, 1},
		{14, 7, 12, 1, 1, 0}, // 1×1 head
		{2, 8, 8, 3, 1, 1},
		{2, 8, 8, 3, 1, 0},
		{1, 5, 7, 5, 1, 2},
		{1, 9, 9, 3, 3, 2},
		{2, 6, 11, 4, 2, 3},
		{1, 3, 3, 3, 2, 2}, // padding wider than the kernel's reach
		{3, 4, 2, 3, 1, 1}, // frame narrower than the kernel row
	} {
		c := NewConv2D(g.inC, g.h, g.w, 2, g.k, g.stride, g.pad, rng)
		x := tensor.New(1, c.InSize())
		rng.FillNormal(x, 1)
		name := fmt.Sprintf("in=%dx%dx%d/k=%d/s=%d/p=%d", g.inC, g.h, g.w, g.k, g.stride, g.pad)
		t.Run(name+"/float64", func(t *testing.T) { im2colCase(t, c, x.V) })
		t.Run(name+"/float32", func(t *testing.T) {
			x32 := tensor.NewOf(tensor.F32, 1, c.InSize())
			tensor.ConvertInto(x32, x)
			im2colCase(t, c, x32.V32)
		})
	}
}

// sameBits reports the first element where a and b differ bit for bit.
func sameBits(a, b *tensor.Mat) (int, bool) {
	if a.R != b.R || a.C != b.C || a.DType() != b.DType() {
		return -1, false
	}
	for i := 0; i < a.Len(); i++ {
		if a.V32 != nil {
			if math.Float32bits(a.V32[i]) != math.Float32bits(b.V32[i]) {
				return i, false
			}
		} else if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestConvBlockedInferenceMatchesTraining pins the blocked inference path
// to the whole-batch training forward bit for bit, across batch sizes
// around the block size (so full, partial and single blocks all occur),
// strides, paddings, both dtypes, and with a fused activation.
func TestConvBlockedInferenceMatchesTraining(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	for _, workers := range []int{1, 3} {
		tensor.SetParallelism(workers)
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					rng := tensor.NewRNG(uint64(43 + stride + 2*pad))
					conv := NewConv2D(2, 8, 10, 5, 3, stride, pad, rng)
					conv.Bias.W.Fill(0.25)
					conv.Bias.Invalidate()
					nb := conv.inferBlock(64, dt.Size())
					for _, r := range []int{1, nb - 1, nb, nb + 1, 64} {
						if r < 1 {
							continue
						}
						name := fmt.Sprintf("w=%d/%v/s=%d/p=%d/r=%d", workers, dt, stride, pad, r)
						t.Run(name, func(t *testing.T) {
							x64 := tensor.New(r, conv.InSize())
							rng.FillNormal(x64, 1)
							x := tensor.NewOf(dt, r, conv.InSize())
							tensor.ConvertInto(x, x64)

							want := conv.Forward(x, true)
							got := conv.Forward(x, false)
							if i, ok := sameBits(got, want); !ok {
								t.Fatalf("blocked inference differs from the whole-batch forward at %d", i)
							}
							Recycle(got)

							// Fused activation: a conv+LeakyReLU network's
							// inference pass equals its unfused training pass.
							net := NewNetwork("fused", conv, NewLeakyReLU(0.1))
							wantAct := net.Forward(x, true)
							gotAct := net.Forward(x, false)
							if i, ok := sameBits(gotAct, wantAct); !ok {
								t.Fatalf("fused conv+activation differs from the unfused forward at %d", i)
							}
							Recycle(want, gotAct)
						})
					}
				}
			}
		}
	}
}
