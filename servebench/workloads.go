package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"odin"
	"odin/internal/synth"
)

// Workload sizes. Frames are about 31 KB each, so every pool is bounded
// and reused in a loop rather than grown with the run length.
const (
	setups = 4 // set-ups per untraced run of steady and fleet; setup_s is their median

	warmRate   = 400.0 // frames/s offered during a warm-up, all cameras together
	warmFrames = 1600  // a fixed count, so every set-up reaches the same state
	warmPool   = 512

	steadyPool   = 1024
	steadyBatch  = 64  // Run's MaxBatch: large windows
	steadyWindow = 128 // closed loop: frames in flight

	fleetCams   = 4
	fleetRate   = 600.0 // frames/s, all cameras together; half the knee of about 1.2k, so bursts queue without saturating
	fleetPeriod = time.Second
	fleetBurst  = 3 // the bursting camera's share against each other camera's
	fleetPool   = 400
	fleetQueue  = 32
)

// inputs returns the scene generator of input stream k. Every stream
// derives from the run's seed alone, so equal seeds give equal inputs.
func (b *bench) inputs(k uint64) *synth.SceneGen {
	return synth.NewSceneGen(b.seed*1_000_003+k+1, synth.DefaultSceneConfig())
}

// Input stream numbers.
const (
	streamWarm  = 1  // + set-up index
	streamTimed = 10 // + set-up index × cameras + camera index
)

// bootstrapSet is the frames every server is bootstrapped on. It is part of
// the deployment under test, not of the workload, so it does not follow
// the seed: every run serves from the same DA-GAN and baseline detector.
func bootstrapSet() []*odin.Frame {
	return synth.NewSceneGen(1, synth.DefaultSceneConfig()).Dataset(synth.FullData, bootFrames)
}

// setup is one set-up: a bootstrapped server with its cameras open and,
// for steady and fleet, warmed up.
type setup struct {
	srv    *odin.Server
	cams   []*odin.Stream
	took   time.Duration
	drifts []driftObs // warm-up drifts, positions relative to the warm-up's first frame
}

// setUp times odin.New through the end of the warm-up. With warm nil the
// cameras are opened cold. The previous set-up's garbage is collected
// before the clock starts.
func setUp(ctx context.Context, boot, warm []*odin.Frame, ncams int, so odin.StreamOptions, opts []odin.Option) (*setup, error) {
	runtime.GC()
	t0 := time.Now()
	srv, err := newServer(ctx, boot, opts...)
	if err != nil {
		return nil, err
	}
	s := &setup{srv: srv}
	for k := 0; k < ncams; k++ {
		o := so
		o.Name = fmt.Sprintf("cam-%d", k)
		st, err := srv.OpenStream(ctx, o)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("open stream: %w", err)
		}
		s.cams = append(s.cams, st)
	}
	if warm != nil {
		if err := s.warmUp(ctx, warm); err != nil {
			srv.Close()
			return nil, err
		}
	}
	s.took = time.Since(t0)
	return s, nil
}

// warmUp offers a fixed number of warm frames, split across the cameras,
// and waits until every recovery it triggered has landed, so the timed
// phase sees no drift and no training. The frame count is fixed, not the
// time, so equal inputs always leave the same cluster state.
func (s *setup) warmUp(ctx context.Context, warm []*odin.Frame) error {
	n := len(s.cams)
	cams := make([]*cam, n)
	for k, st := range s.cams {
		cams[k] = newCam(st, warm[k*len(warm)/n:(k+1)*len(warm)/n], warmFrames/n+1, false)
	}
	base := s.srv.Stats().Frames
	tr := newTracker(s.srv.ModelGen(), warmLabelDelay)
	p := openLoop(ctx, cams, evenSchedule(warmFrames, n, warmRate), tr)
	if err := s.srv.WaitRecoveries(ctx); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	s.drifts = tr.snapshot()
	switch {
	case p.bad != 0 || p.served != warmFrames:
		return fmt.Errorf("warm-up: %d of %d frames served, %d bad results", p.served, warmFrames, p.bad)
	case len(s.drifts) == 0:
		return fmt.Errorf("warm-up: no drift event in %d frames", warmFrames)
	}
	for i := range s.drifts {
		if !s.drifts[i].done {
			return fmt.Errorf("warm-up: drift at frame %d did not recover within %d frames", s.drifts[i].atPoint-base, warmFrames)
		}
		s.drifts[i].atPoint -= base
	}
	return nil
}

// record adds a set-up's time and its warm-up drifts to the run's samples.
func (b *bench) record(s *setup) {
	b.setupTimes = append(b.setupTimes, s.took.Seconds())
	for _, d := range s.drifts {
		b.delays = append(b.delays, float64(d.atPoint))
		b.recovers = append(b.recovers, d.recover.Seconds())
	}
}

// interleaved is the untraced run of steady and fleet. It sets up setups
// times, each warmed on its own input stream and followed by its share of
// the timed phase; then it measures the live heap, with the benchmark's
// inputs dropped, and closes the server. Spreading the timed phase over
// several set-ups averages over several warm-ups and the models they
// trained.
func (b *bench) interleaved(ctx context.Context, ncams int, so odin.StreamOptions, opts []odin.Option, timed func(s *setup, i int, d time.Duration) phaseResult) (phaseResult, []float64, error) {
	boot := bootstrapSet()
	var all phaseResult
	var heaps []float64
	for i := 0; i < setups; i++ {
		s, err := setUp(ctx, boot, b.inputs(streamWarm+uint64(i)).Dataset(synth.DayData, warmPool), ncams, so, opts)
		if err != nil {
			return all, nil, err
		}
		b.record(s)
		gen0, tr0 := s.srv.ModelGen(), s.srv.TrainerStats()
		p := timed(s, i, b.seconds/setups)
		b.addPhase(fmt.Sprintf("timed %d", i+1), p)
		b.quiet(s.srv, gen0, tr0, p.drifts)
		all.merge(p)
		heaps = append(heaps, liveHeapMB())
		s.srv.Close()
		runtime.KeepAlive(s)
	}
	return all, heaps, nil
}

// quiet checks that a timed phase saw no drift and no training.
func (b *bench) quiet(srv *odin.Server, gen0 uint64, tr0 odin.TrainerStats, drifts int) {
	tr1 := srv.TrainerStats()
	b.rep.check("timed phase free of drift and training", drifts == 0 && srv.ModelGen() == gen0 && tr1 == tr0,
		fmt.Sprintf("%d drift events, model generation %d -> %d, trainer %+v -> %+v", drifts, gen0, srv.ModelGen(), tr0, tr1))
}

// runSteady: one camera, closed loop, nproc workers, large windows; no
// dispatcher, no admission queue.
func (b *bench) runSteady(ctx context.Context) error {
	opts := []odin.Option{odin.WithLabelDelay(warmLabelDelay)}
	nproc := runtime.GOMAXPROCS(0)
	so := odin.StreamOptions{Workers: nproc, MaxBatch: steadyBatch}
	timed := func(st *odin.Stream, pool []*odin.Frame, d time.Duration, keepHash bool) (phaseResult, *cam) {
		c := newCam(st, pool, int(d.Seconds()*20000)+1, keepHash)
		return closedLoop(ctx, c, steadyWindow, d), c
	}
	poolFor := func(i int) []*odin.Frame {
		return b.inputs(streamTimed+uint64(i)).Dataset(synth.DayData, steadyPool)
	}

	if !b.trace {
		p, heaps, err := b.interleaved(ctx, 1, so, opts, func(s *setup, i int, d time.Duration) phaseResult {
			p, _ := timed(s.cams[0], poolFor(i), d, false)
			return p
		})
		if err != nil {
			return err
		}
		b.endToEnd(p)
		b.rep.set("heap_mb", median(heaps))
		return nil
	}

	// Traced run: an untraced phase, the same phase traced, then a traced
	// phase at one worker on a second, identical set-up. Equal result
	// digests over the common prefix of the untraced and one-worker phases
	// show that sharding changes no output.
	boot, warm, pool := bootstrapSet(), b.inputs(streamWarm).Dataset(synth.DayData, warmPool), poolFor(0)
	s, err := setUp(ctx, boot, warm, 1, so, opts)
	if err != nil {
		return err
	}
	defer s.srv.Close()
	gen0, tr0 := s.srv.ModelGen(), s.srv.TrainerStats()
	u, uc := timed(s.cams[0], pool, b.seconds, true)
	b.addPhase("untraced", u)
	var t phaseResult
	probe, err := b.traced(s.srv, func() { t, _ = timed(s.cams[0], pool, b.seconds, false) })
	if err != nil {
		return err
	}
	b.addPhase("traced", t)
	b.quiet(s.srv, gen0, tr0, 0)
	s.srv.Close()

	// The second set-up's warm-up is traced too: it is where drift
	// detection and recovery training run, which no timed phase does.
	so1 := so
	so1.Workers = 1
	s1, err := setUp(ctx, boot, nil, 1, so1, opts)
	if err != nil {
		return err
	}
	defer s1.srv.Close()
	var werr error
	warmProbe, err := b.traced(s1.srv, func() { werr = s1.warmUp(ctx, warm) })
	if err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	b.rep.check("warm-up drift frames identical from run to run", slices.Equal(driftPoints(s.drifts), driftPoints(s1.drifts)),
		fmt.Sprintf("set-up 1 %v, set-up 2 %v", driftPoints(s.drifts), driftPoints(s1.drifts)))
	var w1 phaseResult
	var w1c *cam
	if _, err := b.traced(s1.srv, func() { w1, w1c = timed(s1.cams[0], pool, b.seconds, true) }); err != nil {
		return err
	}
	b.addPhase("traced, 1 worker", w1)
	n := min(len(uc.hashes), len(w1c.hashes))
	b.rep.check("steady digest equal at 1 and nproc workers", n >= window && slices.Equal(uc.hashes[:n], w1c.hashes[:n]),
		fmt.Sprintf("%d common results, digest %016x at %d workers, %016x at 1", n, digest(uc.hashes[:n]), nproc, digest(w1c.hashes[:n])))
	b.perLayer(probe, t, s.cams)
	b.trainLayers(warmProbe)
	b.rep.set("tensor.parallel_speedup", median(t.rates)/median(w1.rates))
	b.rep.set("bench.trace_overhead_frac", 1-median(t.rates)/median(u.rates))
	return nil
}

// runFleet: four warmed cameras on one server, open loop at a fixed
// aggregate rate with phase-shifted bursts, dispatcher, Block admission
// queues and adaptive fidelity.
func (b *bench) runFleet(ctx context.Context) error {
	opts := []odin.Option{
		odin.WithLabelDelay(warmLabelDelay),
		odin.WithDispatcher(true),
		odin.WithMaxQueue(fleetQueue),
		odin.WithDropPolicy(odin.DropBlock),
		odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{}),
	}
	timed := func(s *setup, i int, d time.Duration) phaseResult {
		cams := make([]*cam, fleetCams)
		for k := range cams {
			pool := b.inputs(streamTimed+uint64(i*fleetCams+k)).Dataset(synth.DayData, fleetPool)
			cams[k] = newCam(s.cams[k], pool, int(fleetRate*d.Seconds())+1, false)
		}
		tr := newTracker(s.srv.ModelGen(), warmLabelDelay)
		p := openLoop(ctx, cams, burstSchedule(d, fleetCams, fleetRate, fleetPeriod, fleetBurst), tr)
		p.drifts = len(tr.snapshot())
		return p
	}
	if !b.trace {
		p, heaps, err := b.interleaved(ctx, fleetCams, odin.StreamOptions{}, opts, timed)
		if err != nil {
			return err
		}
		b.endToEnd(p)
		b.rep.set("heap_mb", median(heaps))
		return nil
	}
	s, err := setUp(ctx, bootstrapSet(), b.inputs(streamWarm).Dataset(synth.DayData, warmPool), fleetCams, odin.StreamOptions{}, opts)
	if err != nil {
		return err
	}
	defer s.srv.Close()
	gen0, tr0 := s.srv.ModelGen(), s.srv.TrainerStats()
	u := timed(s, 0, b.seconds)
	b.addPhase("untraced", u)
	var t phaseResult
	probe, err := b.traced(s.srv, func() { t = timed(s, 0, b.seconds) })
	if err != nil {
		return err
	}
	b.addPhase("traced", t)
	b.quiet(s.srv, gen0, tr0, u.drifts+t.drifts)
	b.perLayer(probe, t, s.cams)
	b.rep.set("bench.trace_overhead_frac", median(t.p50s)/median(u.p50s)-1)
	return nil
}

// driftPoints lists drift positions.
func driftPoints(ds []driftObs) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.atPoint
	}
	return out
}

// digest folds a sequence of result hashes into one.
func digest(hs []uint64) uint64 {
	d := uint64(14695981039346656037)
	for _, h := range hs {
		d = (d ^ h) * 1099511628211
	}
	return d
}
