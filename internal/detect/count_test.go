package detect

import (
	"fmt"
	"runtime"
	"testing"

	"odin/internal/nn"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// countTestImgs renders a deterministic image set; the detector is used
// untrained (random head weights put roughly half the cells above the
// objectness threshold), which exercises decode, NMS and the score/class
// predicates heavily.
func countTestImgs(n int) []*synth.Image {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(21, scene)
	imgs := make([]*synth.Image, n)
	for i := range imgs {
		imgs[i] = gen.GenerateSubset(synth.FullData).Image
	}
	return imgs
}

// TestCountBatchMatchesDetectBatch is the pushdown correctness gate: for
// every class/score combination, CountBatch must equal the filtered
// DetectBatch output exactly — same decode arithmetic, same (stable) NMS
// suppression.
func TestCountBatchMatchesDetectBatch(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	imgs := countTestImgs(24)
	dets := g.DetectBatch(imgs)

	for _, class := range []int{-1, 0, 1, 3} {
		for _, minScore := range []float64{0, 0.25, 0.4, 0.8} {
			t.Run(fmt.Sprintf("class=%d,min=%.2f", class, minScore), func(t *testing.T) {
				counts := g.CountBatch(imgs, class, minScore)
				if len(counts) != len(imgs) {
					t.Fatalf("got %d counts for %d images", len(counts), len(imgs))
				}
				for i := range imgs {
					want := 0
					for _, d := range dets[i] {
						if d.Score >= minScore && (class < 0 || d.Box.Class == class) {
							want++
						}
					}
					if counts[i] != want {
						t.Fatalf("image %d: count %d, want %d", i, counts[i], want)
					}
				}
			})
		}
	}
}

// TestCountBatchBoxAllocFree pins the pushdown's promise: counting
// materialises no per-box or per-frame Detection slices. The whole batched
// call stays under one allocation per frame (the counts slice plus pooled
// scratch churn), where DetectBatch necessarily allocates several per
// frame just for the boxes.
func TestCountBatchBoxAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool reuse is randomised)")
	}
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	imgs := countTestImgs(16)
	g.CountBatch(imgs, -1, 0.3) // warm the scratch and workspace pools

	perCall := testing.AllocsPerRun(20, func() {
		g.CountBatch(imgs, -1, 0.3)
	})
	if perFrame := perCall / float64(len(imgs)); perFrame >= 1 {
		t.Fatalf("CountBatch allocates %.1f objects per frame (%.0f per call); boxes are leaking into the counting path", perFrame, perCall)
	}

	detect := testing.AllocsPerRun(20, func() {
		g.DetectBatch(imgs)
	})
	if detect <= perCall {
		t.Fatalf("DetectBatch (%v allocs) should cost more than CountBatch (%v)", detect, perCall)
	}
}

// TestDetectBatchAllocs pins DetectBatch to the allocations its
// detections need: the network forward (blocked conv inference, pooled
// workspaces, pre-bound fan-out tasks) adds none, at one worker or when
// the fan-out really splits, on either backend. The reference is decode
// alone over the same network outputs, plus the result slice.
func TestDetectBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool reuse is randomised)")
	}
	scene := synth.DefaultSceneConfig()
	imgs := countTestImgs(16)
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		cfg := YOLOConfig(scene.H, scene.W)
		cfg.DType = dt
		g := NewGridDetector(cfg)
		batch := loadRows(dt, len(imgs), imgs[0].Dim(), func(i int) []float64 { return imgs[i].Flat() })
		out := g.Net.Predict(batch)
		rows := make([][]float64, len(imgs))
		for i := range rows {
			rows[i] = append([]float64(nil), out.Row64(i, nil)...)
		}
		nn.Recycle(batch, out)
		decode := testing.AllocsPerRun(20, func() {
			for _, row := range rows {
				g.decode(row)
			}
		})
		for _, workers := range []int{1, 2, 4} {
			tensor.SetParallelism(workers)
			g.DetectBatch(imgs) // warm the pools
			runtime.GC()
			got := testing.AllocsPerRun(20, func() { g.DetectBatch(imgs) })
			if got > decode+1 {
				t.Errorf("%v workers=%d: DetectBatch allocates %v per call, decoding alone %v", dt, workers, got, decode)
			}
		}
	}
}

func BenchmarkCountBatch(b *testing.B) {
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	imgs := countTestImgs(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountBatch(imgs, 0, 0.3)
	}
}

func BenchmarkDetectBatchCount(b *testing.B) {
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	imgs := countTestImgs(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, dets := range g.DetectBatch(imgs) {
			for _, d := range dets {
				if d.Score >= 0.3 && d.Box.Class == 0 {
					n++
				}
			}
		}
		_ = n
	}
}
