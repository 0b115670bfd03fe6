package nn

import (
	"testing"

	"odin/internal/tensor"
)

// CIFAR-like shapes: 3×32×32 inputs, 16 3×3 filters for the conv stack and
// a 3072→256 projection for the dense stack, batch 16/64 — the shapes the
// DA-GAN bootstrap and detector training loops spend their time in.

func benchConv() (*Conv2D, *tensor.Mat) {
	rng := tensor.NewRNG(1)
	layer := NewConv2D(3, 32, 32, 16, 3, 1, 1, rng)
	x := tensor.New(16, 3*32*32)
	rng.FillNormal(x, 1)
	return layer, x
}

func BenchmarkConv2DForward(b *testing.B) {
	layer, x := benchConv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Recycling the output matches a real training step, where
		// Network.Backward hands every intermediate back to the pool.
		Recycle(layer.Forward(x, true))
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	layer, x := benchConv()
	out := layer.Forward(x, true)
	grad := tensor.New(out.R, out.C)
	tensor.NewRNG(2).FillNormal(grad, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Weight.Grad.Zero()
		layer.Bias.Grad.Zero()
		Recycle(layer.Backward(grad))
	}
}

func benchDense() (*Dense, *tensor.Mat) {
	rng := tensor.NewRNG(3)
	layer := NewDense(3072, 256, rng)
	x := tensor.New(64, 3072)
	rng.FillNormal(x, 1)
	return layer, x
}

func BenchmarkDenseForward(b *testing.B) {
	layer, x := benchDense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Recycle(layer.Forward(x, true))
	}
}

func BenchmarkDenseBackward(b *testing.B) {
	layer, x := benchDense()
	out := layer.Forward(x, true)
	grad := tensor.New(out.R, out.C)
	tensor.NewRNG(4).FillNormal(grad, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Weight.Grad.Zero()
		layer.Bias.Grad.Zero()
		Recycle(layer.Backward(grad))
	}
}

// BenchmarkConv2DInference runs the blocked inference path at the serving
// benchmark's steady shapes: the specialized detector's first layer
// (3→10 channels, 3×3, stride 2, pad 1) over a 64-frame window of 27×48
// frames, on both backends.
func BenchmarkConv2DInference(b *testing.B) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		b.Run(dt.String(), func(b *testing.B) {
			rng := tensor.NewRNG(1)
			layer := NewConv2D(3, 27, 48, 10, 3, 2, 1, rng)
			x64 := tensor.New(64, layer.InSize())
			rng.FillNormal(x64, 1)
			x := tensor.NewOf(dt, x64.R, x64.C)
			tensor.ConvertInto(x, x64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Recycle(layer.Forward(x, false))
			}
		})
	}
}
