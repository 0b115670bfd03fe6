package nn

import (
	"fmt"
	"math"

	"odin/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major C×H×W rows, implemented
// with im2col. Training unrolls the whole batch into one patch matrix with
// a column per output pixel, so forward and backward are each a single
// large matrix multiply instead of one small multiply per sample; inference
// unrolls cache-sized blocks of samples instead (see forwardFused).
// Output rows are flattened OutC×OutH×OutW. The compute dtype follows the
// input batch: float32 batches unroll into float32 patch matrices and
// multiply against the float32 weight shadows.
type Conv2D struct {
	InC, InH, InW  int
	OutC           int
	K, Stride, Pad int
	OutH, OutW     int

	Weight *Param // OutC × (K*K*InC)
	Bias   *Param // 1 × OutC

	// cols is the training im2col workspace, (K*K*InC) × (R*OutH*OutW),
	// retained across steps (it is also the backward cache) and reallocated
	// only when the batch size or dtype changes.
	cols *tensor.Mat
}

// NewConv2D builds a conv layer. Output spatial dims follow the standard
// formula out = (in + 2*pad - k)/stride + 1; the construction panics when
// the geometry does not divide evenly, surfacing architecture typos early.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: conv2d produces empty output for input %dx%dx%d k=%d s=%d p=%d", inC, inH, inW, k, stride, pad))
	}
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, K: k, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		Weight: newParam("conv.W", outC, k*k*inC),
		Bias:   newParam("conv.b", 1, outC),
	}
	fanIn := float64(k * k * inC)
	bound := math.Sqrt(6.0 / fanIn)
	rng.FillUniform(c.Weight.W, -bound, bound)
	return c
}

// OutSize returns the flattened output width OutC*OutH*OutW.
func (c *Conv2D) OutSize() int { return c.OutC * c.OutH * c.OutW }

// InSize returns the flattened input width InC*InH*InW.
func (c *Conv2D) InSize() int { return c.InC * c.InH * c.InW }

// patchRows returns the patch-matrix height K*K*InC.
func (c *Conv2D) patchRows() int { return c.K * c.K * c.InC }

// validRange returns the output positions [lo, hi), within [0, out), of
// a kernel tap at offset t whose input position o*s + t - p lies inside
// [0, in).
func validRange(t, s, p, in, out int) (lo, hi int) {
	if p > t {
		lo = (p - t + s - 1) / s
	}
	if last := in - 1 + p - t; last >= 0 {
		hi = min(last/s+1, out)
	}
	lo = min(lo, out)
	return lo, max(hi, lo)
}

// im2colInto unrolls one flattened sample into the column block
// [off, off+OutH*OutW) of a patch matrix (colsV with row stride colsC).
// Padded positions are written as zeros because workspaces are reused.
// The valid output rows and columns of each kernel tap are computed once;
// padding rows are cleared in one pass, and each valid row clears its
// left and right padding and copies (stride 1) or gathers the interior,
// with no per-element bounds branch.
func im2colInto[T float](c *Conv2D, row []T, colsV []T, colsC, off int) {
	inH, inW, outH, outW := c.InH, c.InW, c.OutH, c.OutW
	k, s, p := c.K, c.Stride, c.Pad
	spatial := outH * outW
	for kx := 0; kx < k; kx++ {
		lo, hi := validRange(kx, s, p, inW, outW)
		ix0 := lo*s + kx - p // input column of output column lo
		for ky := 0; ky < k; ky++ {
			y0, y1 := validRange(ky, s, p, inH, outH)
			for ch := 0; ch < c.InC; ch++ {
				base := ((ch*k+ky)*k+kx)*colsC + off
				crow := colsV[base : base+spatial]
				clear(crow[:y0*outW])
				clear(crow[y1*outW:])
				if hi == lo {
					clear(crow[y0*outW : y1*outW])
					continue
				}
				// Input offset of output (y0, lo); each output row below
				// it starts s input rows further on.
				at := ch*inH*inW + (y0*s+ky-p)*inW + ix0
				for oy := y0; oy < y1; oy++ {
					seg := crow[oy*outW : (oy+1)*outW]
					for i := 0; i < lo; i++ {
						seg[i] = 0
					}
					in := seg[lo:hi]
					src := row[at : at+(len(in)-1)*s+1]
					switch s {
					case 1:
						copy(in, src)
					case 2:
						gather2(in, src)
					default:
						for i := range in {
							in[i] = src[i*s]
						}
					}
					for i := hi; i < outW; i++ {
						seg[i] = 0
					}
					at += s * inW
				}
			}
		}
	}
}

// gather2 copies every second element of src into dst.
func gather2[T float](dst, src []T) {
	for len(dst) >= 4 && len(src) >= 8 {
		dst[0], dst[1], dst[2], dst[3] = src[0], src[2], src[4], src[6]
		dst, src = dst[4:], src[8:]
	}
	for i := range dst {
		dst[i] = src[2*i]
	}
}

// col2imInto scatters the column block [off, off+OutH*OutW) of a patch
// gradient back into one flattened sample gradient.
func col2imInto[T float](c *Conv2D, colsV []T, colsC, off int, dst []T) {
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
						idx += c.OutW
						continue
					}
					rbase := chOff + iy*c.InW
					for ox := 0; ox < c.OutW; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix >= 0 && ix < c.InW {
							dst[rbase+ix] += crow[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// convRegroup rewrites the channel-major matmul output yV (row stride yC)
// into per-sample rows of outV (row stride outC·spatial), adding the channel
// bias in the same pass. Samples [n0,n1).
func convRegroup[T float](outV, yV, bias []T, nOutC, spatial, yC int, n0, n1 int) {
	outW := nOutC * spatial
	for n := n0; n < n1; n++ {
		orow := outV[n*outW : (n+1)*outW]
		for oc := 0; oc < nOutC; oc++ {
			src := yV[oc*yC+n*spatial : oc*yC+(n+1)*spatial]
			dst := orow[oc*spatial : (oc+1)*spatial]
			b := bias[oc]
			for i, v := range src {
				dst[i] = v + b
			}
		}
	}
}

// convRegroupBack transposes per-sample gradient rows gradV back into the
// channel-major layout gV (row stride gC) used by the gradient matmuls.
func convRegroupBack[T float](gV, gradV []T, nOutC, spatial, gC int, n0, n1 int) {
	gradW := nOutC * spatial
	for n := n0; n < n1; n++ {
		grow := gradV[n*gradW : (n+1)*gradW]
		for oc := 0; oc < nOutC; oc++ {
			copy(gV[oc*gC+n*spatial:oc*gC+(n+1)*spatial], grow[oc*spatial:(oc+1)*spatial])
		}
	}
}

// Forward convolves the batch. Training unrolls the whole batch into one
// patch matrix, retained as the backward cache, then runs one
// weight×patches multiply and a bias-fused regroup into row-major output.
// Inference takes the blocked path (forwardFused without an activation),
// which writes no layer state, so concurrent inference is race-free.
func (c *Conv2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if !train {
		return c.forwardFused(x, epilogue{})
	}
	if x.C != c.InSize() {
		panic(fmt.Sprintf("nn: conv2d input width %d, want %d", x.C, c.InSize()))
	}
	dt := x.DType()
	r := x.R
	spatial := c.OutH * c.OutW
	rows := c.patchRows()
	if c.cols == nil || c.cols.R != rows || c.cols.C != r*spatial || c.cols.DType() != dt {
		c.cols = tensor.NewOf(dt, rows, r*spatial)
	}
	cols := c.cols
	if dt == tensor.F32 {
		tensor.Parallel(r, r*rows*spatial, func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				im2colInto(c, x.Row32(n), cols.V32, cols.C, n*spatial)
			}
		})
	} else {
		tensor.Parallel(r, r*rows*spatial, func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				im2colInto(c, x.Row(n), cols.V, cols.C, n*spatial)
			}
		})
	}

	wt, bias := c.Weight.W, c.Bias.W
	if dt == tensor.F32 {
		wt, bias = c.Weight.W32(), c.Bias.W32()
	}

	// y holds the whole batch channel-major: y[oc][n*spatial+s].
	y := ws.GetRawOf(dt, c.OutC, r*spatial)
	tensor.MatMulInto(y, wt, cols)

	// Regroup into per-sample rows, adding the channel bias in the same pass.
	out := ws.GetRawOf(dt, r, c.OutSize())
	if dt == tensor.F32 {
		tensor.Parallel(r, r*c.OutC*spatial, func(n0, n1 int) {
			convRegroup(out.V32, y.V32, bias.V32, c.OutC, spatial, y.C, n0, n1)
		})
	} else {
		tensor.Parallel(r, r*c.OutC*spatial, func(n0, n1 int) {
			convRegroup(out.V, y.V, bias.V, c.OutC, spatial, y.C, n0, n1)
		})
	}
	ws.Put(y)
	return out
}

// convBlockBytes is the cache budget for one inference block's patch
// matrix. A block this size stays in cache while the matmul streams it
// once per output channel; the whole-batch patch matrix of a 64-frame
// window (27 × 21 504 float64 ≈ 4.6 MB for a 3-channel 27×48 frame at
// stride 2) would stream from L3 instead.
const convBlockBytes = 32 << 10

// inferBlock returns the samples per inference block for an r-sample batch
// of esize-byte elements: as many as fit convBlockBytes (at least one),
// capped at ⌈r/workers⌉ so that small windows still split across the pool.
func (c *Conv2D) inferBlock(r, esize int) int {
	nb := max(1, convBlockBytes/(c.patchRows()*c.OutH*c.OutW*esize))
	w := tensor.Parallelism()
	return min(nb, (r+w-1)/w)
}

// convArgs binds one blocked inference call for convInferTasks.
type convArgs struct {
	c        *Conv2D
	x, out   *tensor.Mat
	wt, bias *tensor.Mat // in the batch's dtype
	nb       int         // samples per block
	e        epilogue
}

var convInferTasks = tensor.Tasks[convArgs]{Fn: convInferBlocks}

// forwardFused is the blocked inference path, with the following
// activation e applied to each block's output rows while they are still in
// cache. The worker pool fans out over blocks of samples, and each block
// runs im2col → one serial matmul → bias regroup → activation on one
// goroutine. Every output element accumulates exactly as in the training
// path's whole-batch multiply (k ascending, bias added after), so both
// give the same bits. No layer state is touched (re-entrant).
func (c *Conv2D) forwardFused(x *tensor.Mat, e epilogue) *tensor.Mat {
	if x.C != c.InSize() {
		panic(fmt.Sprintf("nn: conv2d input width %d, want %d", x.C, c.InSize()))
	}
	dt := x.DType()
	wt, bias := c.Weight.W, c.Bias.W
	if dt == tensor.F32 {
		wt, bias = c.Weight.W32(), c.Bias.W32()
	}
	out := ws.GetRawOf(dt, x.R, c.OutSize())
	if x.R == 0 {
		return out
	}
	nb := c.inferBlock(x.R, dt.Size())
	work := 2 * x.R * c.OutC * c.patchRows() * c.OutH * c.OutW
	convInferTasks.Parallel((x.R+nb-1)/nb, work, convArgs{c, x, out, wt, bias, nb, e})
	return out
}

// convInferBlocks runs inference blocks [blk0, blk1), drawing one pair of
// block-sized scratch matrices for the whole range of blocks.
func convInferBlocks(a *convArgs, blk0, blk1 int) {
	c, x := a.c, a.x
	dt := x.DType()
	spatial := c.OutH * c.OutW
	rows, outSize := c.patchRows(), c.OutSize()
	colsBuf := ws.GetRawOf(dt, rows, a.nb*spatial)
	yBuf := ws.GetRawOf(dt, c.OutC, a.nb*spatial)
	// Headers over the scratch, narrowed for a partial last block.
	cols, y := *colsBuf, *yBuf
	for blk := blk0; blk < blk1; blk++ {
		n0 := blk * a.nb
		n1 := min(n0+a.nb, x.R)
		w := (n1 - n0) * spatial
		cols.C, y.C = w, w
		if dt == tensor.F32 {
			cols.V32, y.V32 = colsBuf.V32[:rows*w], yBuf.V32[:c.OutC*w]
			for n := n0; n < n1; n++ {
				im2colInto(c, x.Row32(n), cols.V32, w, (n-n0)*spatial)
			}
			tensor.MatMulSerialInto(&y, a.wt, &cols)
			o := a.out.V32[n0*outSize : n1*outSize]
			convRegroup(o, y.V32, a.bias.V32, c.OutC, spatial, w, 0, n1-n0)
			applyEpilogue(a.e, o)
		} else {
			cols.V, y.V = colsBuf.V[:rows*w], yBuf.V[:c.OutC*w]
			for n := n0; n < n1; n++ {
				im2colInto(c, x.Row(n), cols.V, w, (n-n0)*spatial)
			}
			tensor.MatMulSerialInto(&y, a.wt, &cols)
			o := a.out.V[n0*outSize : n1*outSize]
			convRegroup(o, y.V, a.bias.V, c.OutC, spatial, w, 0, n1-n0)
			applyEpilogue(a.e, o)
		}
	}
	ws.Put(colsBuf, yBuf)
}

// Backward accumulates weight/bias gradients and returns the input
// gradient. The whole batch is regrouped into one channel-major gradient
// matrix so the weight gradient is a single G×patchesᵀ multiply and the
// patch gradient a single Wᵀ×G multiply. Matmuls run in the gradient's
// dtype; the results accumulate into the float64 master gradients.
func (c *Conv2D) Backward(grad *tensor.Mat) *tensor.Mat {
	dt := grad.DType()
	r := grad.R
	spatial := c.OutH * c.OutW
	rows := c.patchRows()

	// Regroup grad rows channel-major (the transpose of the forward scatter).
	g := ws.GetRawOf(dt, c.OutC, r*spatial)
	if dt == tensor.F32 {
		tensor.Parallel(r, r*c.OutC*spatial, func(n0, n1 int) {
			convRegroupBack(g.V32, grad.V32, c.OutC, spatial, g.C, n0, n1)
		})
	} else {
		tensor.Parallel(r, r*c.OutC*spatial, func(n0, n1 int) {
			convRegroupBack(g.V, grad.V, c.OutC, spatial, g.C, n0, n1)
		})
	}

	// Bias gradient: per-channel sum over every sample and position,
	// accumulated in float64 on both backends.
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		if dt == tensor.F32 {
			for _, v := range g.Row32(oc) {
				s += float64(v)
			}
		} else {
			for _, v := range g.Row(oc) {
				s += v
			}
		}
		c.Bias.Grad.V[oc] += s
	}

	// Weight gradient: G × patchesᵀ across the whole batch at once.
	dW := ws.GetRawOf(dt, c.OutC, rows)
	tensor.MatMulBTInto(dW, g, c.cols)
	c.Weight.Grad.Add(dW)
	ws.Put(dW)

	wt := c.Weight.W
	if dt == tensor.F32 {
		wt = c.Weight.W32()
	}

	// Input gradient: Wᵀ × G, scattered back per sample by col2im.
	dCols := ws.GetRawOf(dt, rows, r*spatial)
	tensor.MatMulATInto(dCols, wt, g)
	dx := ws.GetOf(dt, r, c.InSize())
	if dt == tensor.F32 {
		tensor.Parallel(r, r*rows*spatial, func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				col2imInto(c, dCols.V32, dCols.C, n*spatial, dx.Row32(n))
			}
		})
	} else {
		tensor.Parallel(r, r*rows*spatial, func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				col2imInto(c, dCols.V, dCols.C, n*spatial, dx.Row(n))
			}
		})
	}
	ws.Put(g, dCols)
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Upsample2D performs nearest-neighbour spatial upsampling by an integer
// factor, used by decoders instead of transposed convolutions.
type Upsample2D struct {
	InC, InH, InW int
	Scale         int
	OutH, OutW    int
}

// NewUpsample2D builds a nearest-neighbour upsampler.
func NewUpsample2D(inC, inH, inW, scale int) *Upsample2D {
	return &Upsample2D{
		InC: inC, InH: inH, InW: inW, Scale: scale,
		OutH: inH * scale, OutW: inW * scale,
	}
}

// OutSize returns the flattened output width.
func (u *Upsample2D) OutSize() int { return u.InC * u.OutH * u.OutW }

func upsampleRow[T float](u *Upsample2D, src, dst []T) {
	for ch := 0; ch < u.InC; ch++ {
		sOff := ch * u.InH * u.InW
		dOff := ch * u.OutH * u.OutW
		for y := 0; y < u.OutH; y++ {
			sy := y / u.Scale
			for xx := 0; xx < u.OutW; xx++ {
				dst[dOff+y*u.OutW+xx] = src[sOff+sy*u.InW+xx/u.Scale]
			}
		}
	}
}

// Forward replicates each input pixel into a Scale×Scale block.
func (u *Upsample2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != u.InC*u.InH*u.InW {
		panic("nn: upsample input width mismatch")
	}
	out := ws.GetRawOf(x.DType(), x.R, u.OutSize())
	if x.V32 != nil {
		tensor.Parallel(x.R, x.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleRow(u, x.Row32(n), out.Row32(n))
			}
		})
	} else {
		tensor.Parallel(x.R, x.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleRow(u, x.Row(n), out.Row(n))
			}
		})
	}
	return out
}

func upsampleBackRow[T float](u *Upsample2D, src, dst []T) {
	for ch := 0; ch < u.InC; ch++ {
		sOff := ch * u.OutH * u.OutW
		dOff := ch * u.InH * u.InW
		for y := 0; y < u.OutH; y++ {
			sy := y / u.Scale
			for xx := 0; xx < u.OutW; xx++ {
				dst[dOff+sy*u.InW+xx/u.Scale] += src[sOff+y*u.OutW+xx]
			}
		}
	}
}

// Backward sums gradients over each Scale×Scale block.
func (u *Upsample2D) Backward(grad *tensor.Mat) *tensor.Mat {
	dx := ws.GetOf(grad.DType(), grad.R, u.InC*u.InH*u.InW)
	if grad.V32 != nil {
		tensor.Parallel(grad.R, grad.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleBackRow(u, grad.Row32(n), dx.Row32(n))
			}
		})
	} else {
		tensor.Parallel(grad.R, grad.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleBackRow(u, grad.Row(n), dx.Row(n))
			}
		})
	}
	return dx
}

// Params returns nil: upsampling has no trainable parameters.
func (u *Upsample2D) Params() []*Param { return nil }
