package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"odin"
)

// layerProbe is what one traced phase recorded from outside the program:
// the server's public counters before and after, runtime/metrics CPU
// classes, and CPU, block and mutex profiles.
type layerProbe struct {
	wall           time.Duration
	stats0, stats  odin.Stats
	disp0, disp    odin.DispatchStats
	train0, train  odin.TrainerStats
	cpuBusy, cpuGC float64 // CPU seconds from runtime/metrics
	cpu            cpuFold
	lockWait       int64 // ns a sync.Mutex released by core kept others waiting
	submitWait     int64 // ns Run loops blocked in dispatch Submit
	admission      int64 // ns frames blocked at a full admission queue
}

var cpuMetrics = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readCPUClasses forces a collection, which brings the runtime's CPU class
// accounting up to date, and reads it.
func readCPUClasses() (busy, gc float64) {
	runtime.GC()
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64() - s[1].Value.Float64(), s[2].Value.Float64()
}

// traced runs phase with every probe on and folds what they recorded.
// Block and mutex profiling sample every event only while the phase runs.
func (b *bench) traced(srv *odin.Server, phase func()) (*layerProbe, error) {
	p := &layerProbe{stats0: srv.Stats(), disp0: srv.DispatchStats(), train0: srv.TrainerStats()}
	busy0, gc0 := readCPUClasses()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	runtime.SetBlockProfileRate(1)
	runtime.SetMutexProfileFraction(1)
	t0 := time.Now()
	phase()
	p.wall = time.Since(t0)
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(0)
	pprof.StopCPUProfile()
	busy1, gc1 := readCPUClasses()
	p.cpuBusy, p.cpuGC = busy1-busy0, gc1-gc0
	p.stats, p.disp, p.train = srv.Stats(), srv.DispatchStats(), srv.TrainerStats()

	prof, err := parseProfile(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	if p.cpu, err = foldCPU(prof); err != nil {
		return nil, err
	}
	block, err := lookupProfile("block")
	if err != nil {
		return nil, err
	}
	if p.submitWait, err = waitFold(block, inStack("odin/internal/dispatch.(*Session).Submit")); err != nil {
		return nil, err
	}
	if p.admission, err = waitFold(block, inStack("odin/internal/qos.(*Queue).Push")); err != nil {
		return nil, err
	}
	mutex, err := lookupProfile("mutex")
	if err != nil {
		return nil, err
	}
	if p.lockWait, err = waitFold(mutex, lockedFrom("core")); err != nil {
		return nil, err
	}
	return p, nil
}

// lookupProfile writes and parses one of the runtime's named profiles.
func lookupProfile(name string) (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup(name).WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("%s profile: %w", name, err)
	}
	return parseProfile(buf.Bytes())
}

// perLayer sets every per-layer metric from a traced phase. Stage CPU is
// charged by stack (see stageOf and foldCPU); per-frame figures divide by
// the frames the phase served.
func (b *bench) perLayer(p *layerProbe, ph phaseResult, cams []*odin.Stream) {
	frames := float64(max(ph.served, 1))
	kframes := frames / 1000
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	set := b.rep.set
	set("tensor.self_cpu_ms_per_frame", ms(p.cpu.self["tensor"])/frames)
	set("nn.self_cpu_ms_per_frame", ms(p.cpu.self["nn"])/frames)
	set("stream.self_cpu_us_per_frame", ms(p.cpu.self["stream"])*1000/frames)
	set("runtime.busy_cores", p.cpuBusy/p.wall.Seconds())
	set("runtime.gc_cpu_frac", ratio(p.cpuGC, p.cpuBusy))
	set("gan.project_cpu_ms_per_frame", ms(p.cpu.stage[stageProject])/frames)
	set("detect.detect_cpu_ms_per_frame", ms(p.cpu.stage[stageDetect])/frames)
	set("detect.count_cpu_ms_per_frame", ms(p.cpu.stage[stageCount])/frames)
	set("core.advance_cpu_us_per_frame", ms(p.cpu.stage[stageAdvance])*1000/frames)
	set("cluster.observe_cpu_us_per_frame", ms(p.cpu.observe)*1000/frames)
	set("core.lock_wait_ms_per_kframe", ms(p.lockWait)/kframes)

	dFrames := float64(p.stats.Frames - p.stats0.Frames)
	b.trainLayers(p)

	batches := float64(p.disp.Batches - p.disp0.Batches)
	set("dispatch.frames_per_batch", ratio(float64(p.disp.Frames-p.disp0.Frames), batches))
	set("dispatch.frames_per_window", ratio(float64(p.disp.Frames-p.disp0.Frames), float64(p.disp.Windows-p.disp0.Windows)))
	set("dispatch.partial_flush_frac", ratio(float64(p.disp.PartialFlushes-p.disp0.PartialFlushes), batches))
	set("dispatch.submit_wait_ms_per_kframe", ms(p.submitWait)/kframes)

	transitions := 0
	for _, st := range cams {
		transitions += st.QoS().Transitions
	}
	set("qos.transitions", float64(transitions))
	set("qos.lite_frac", ratio(float64(p.stats.LiteFrames-p.stats0.LiteFrames), dFrames))
	set("qos.count_frac", ratio(float64(p.stats.CountFrames-p.stats0.CountFrames), dFrames))
	set("qos.skip_frac", ratio(float64(p.stats.SkipFrames-p.stats0.SkipFrames), dFrames))
	set("qos.admission_block_ms_per_kframe", ms(p.admission)/kframes)
	set("bench.gen_lag_p99_ms", quantile(ph.genLag, 0.99))
	if _, ok := b.rep.values["tensor.parallel_speedup"]; !ok {
		set("tensor.parallel_speedup", 0) // only steady runs a one-worker phase
	}

	fmt.Printf("trace: cpu by layer (ms/frame):")
	for _, l := range sortedKeys(p.cpu.self) {
		fmt.Printf(" %s=%.4f", l, ms(p.cpu.self[l])/frames)
	}
	fmt.Printf("\ntrace: cpu by stage (ms/frame):")
	for _, s := range sortedKeys(p.cpu.stage) {
		fmt.Printf(" %s=%.4f", s, ms(p.cpu.stage[s])/frames)
	}
	fmt.Printf("\ntrace: %d cpu-profile ms over %.2fs wall; %d ms of kernel work on pool goroutines, which carry no caller frames, split across stages by each stage's tensor self time on its own stacks\n",
		p.cpu.total/1e6, p.wall.Seconds(), p.cpu.kernel/1e6)
}

// trainLayers sets the drift-detection and training metrics from a
// traced phase. On steady they come from a traced warm-up instead of the
// timed phase, which runs neither.
func (b *bench) trainLayers(p *layerProbe) {
	set := b.rep.set
	set("cluster.outlier_frac", ratio(float64(p.stats.Outliers-p.stats0.Outliers), float64(p.stats.Frames-p.stats0.Frames)))
	jobs := (p.train.Trained - p.train0.Trained) + (p.train.Failed - p.train0.Failed)
	set("train.jobs", float64(jobs))
	set("train.failed", float64(p.train.Failed-p.train0.Failed))
	set("train.build_cpu_s_per_job", ratio(float64(p.cpu.stage[stageTrain])/1e9, float64(jobs)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
