package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odin"
)

// Bootstrap scale shared by every workload (the quick scale of the repo's
// own experiments), so setup_s is comparable across workloads.
const (
	bootFrames     = 150
	bootEpochs     = 2
	baselineEpochs = 6
	// warmLabelDelay shortens the label delay of the warm-ups of steady
	// and fleet, so their specialized models land within a few seconds of
	// set-up instead of after 400-frame builds.
	warmLabelDelay = 64
)

// baseOptions are the server options every workload starts from: async
// recovery training (odin-serve's default) on the quick bootstrap scale.
// The server seed is fixed; the workload seed drives only the inputs.
func baseOptions() []odin.Option {
	return []odin.Option{
		odin.WithSeed(1),
		odin.WithBootstrapFrames(bootFrames),
		odin.WithBootstrapEpochs(bootEpochs),
		odin.WithBaselineEpochs(baselineEpochs),
		odin.WithTrainAsync(true),
	}
}

// newServer builds and bootstraps a server on the given frames.
func newServer(ctx context.Context, boot []*odin.Frame, extra ...odin.Option) (*odin.Server, error) {
	srv, err := odin.New(append(baseOptions(), extra...)...)
	if err != nil {
		return nil, fmt.Errorf("new server: %w", err)
	}
	if err := srv.Bootstrap(ctx, boot); err != nil {
		srv.Close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return srv, nil
}

// cam is one camera's Run session under measurement: the frames it is
// offered, when each was due, and what came back. The driver goroutine
// writes due[seq] before sending frame seq, and the channel hand-off
// orders that write before the collector's read of it.
type cam struct {
	st      *odin.Stream
	pool    []*odin.Frame    // frame seq is pool[seq%len(pool)]
	in      chan *odin.Frame // sized to every frame the phase may offer, so the driver never blocks on it
	due     []time.Duration  // offset from phase start at which frame seq was due
	sent    int              // frames offered; the driver's, read after it ends
	tokens  chan struct{}    // closed loop: one per frame in flight
	results <-chan odin.StreamResult

	// The collector's; read after it ends.
	next     int // next expected seq
	served   int
	dropped  int
	bad      int       // results out of seq order or carrying the wrong frame
	full     int       // served at FidelityFull
	lat      []float64 // ms, in seq order
	recv     []float64 // s from phase start, in seq order
	keepHash bool
	hashes   []uint64
}

func newCam(st *odin.Stream, pool []*odin.Frame, maxFrames int, keepHash bool) *cam {
	c := &cam{
		st:       st,
		pool:     pool,
		in:       make(chan *odin.Frame, maxFrames),
		due:      make([]time.Duration, maxFrames),
		lat:      make([]float64, 0, maxFrames),
		recv:     make([]float64, 0, maxFrames),
		keepHash: keepHash,
	}
	if keepHash {
		c.hashes = make([]uint64, 0, maxFrames)
	}
	return c
}

// frame returns the frame offered at seq.
func (c *cam) frame(seq int) *odin.Frame { return c.pool[seq%len(c.pool)] }

// offer records frame seq's due time and sends it.
func (c *cam) offer(due time.Duration) bool {
	seq := c.sent
	if seq >= len(c.due) {
		return false
	}
	c.due[seq] = due
	c.in <- c.frame(seq)
	c.sent++
	return true
}

// collect drains the camera's Run channel, checking that results arrive
// exactly once per offered frame, in seq order, carrying that frame.
func (c *cam) collect(start time.Time, tr *tracker) {
	for r := range c.results {
		now := time.Now()
		if c.tokens != nil {
			<-c.tokens
		}
		if r.Seq != c.next || r.Dropped != (r.Frame == nil) || (!r.Dropped && r.Frame != c.frame(r.Seq)) {
			c.bad++
		}
		c.next++
		if r.Dropped {
			c.dropped++
			continue
		}
		c.served++
		if r.Fidelity == odin.FidelityFull {
			c.full++
		}
		if r.Seq >= 0 && r.Seq < len(c.due) {
			at := now.Sub(start)
			c.lat = append(c.lat, float64(at-c.due[r.Seq])/1e6)
			c.recv = append(c.recv, at.Seconds())
		}
		if c.keepHash {
			c.hashes = append(c.hashes, resultHash(&r))
		}
		if tr != nil {
			tr.observe(&r, now)
		}
	}
}

// driftObs is one drift event as the collector saw it.
type driftObs struct {
	atPoint int // the pipeline's frame position of the drift (DriftEvent.AtPoint)
	at      time.Time
	litePos int // position of this drift's lite job in the trainer's FIFO
	done    bool
	recover time.Duration
}

// tracker follows drift events and their recoveries across every camera
// of a server. The async trainer builds jobs one at a time in enqueue
// order: a drift enqueues a lite job at once and a specialized job
// labelDelay frames later. So the position of drift k's lite job in that
// order is known when drift k arrives, and the first result whose ModelGen
// reaches the phase's starting generation plus that position plus one is
// the first result served by a model set holding the model built for
// drift k's cluster.
type tracker struct {
	gen0       uint64
	labelDelay int

	mu      sync.Mutex
	drifts  []driftObs
	pending atomic.Int64
}

func newTracker(gen0 uint64, labelDelay int) *tracker {
	return &tracker{gen0: gen0, labelDelay: labelDelay}
}

// observe records a result received at now.
func (t *tracker) observe(r *odin.StreamResult, now time.Time) {
	if r.Drift == nil && t.pending.Load() == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.Drift != nil {
		d := driftObs{atPoint: r.Drift.AtPoint, at: now}
		// Ahead of this lite job: every earlier lite job, and each earlier
		// drift's specialized job that matured strictly before this drift.
		for _, e := range t.drifts {
			d.litePos++
			if e.atPoint+t.labelDelay < d.atPoint {
				d.litePos++
			}
		}
		t.drifts = append(t.drifts, d)
		t.pending.Add(1)
	}
	for i := range t.drifts {
		d := &t.drifts[i]
		if !d.done && r.ModelGen >= t.gen0+uint64(d.litePos)+1 {
			d.done = true
			d.recover = now.Sub(d.at)
			t.pending.Add(-1)
		}
	}
}

// snapshot returns the drifts seen so far.
func (t *tracker) snapshot() []driftObs {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]driftObs(nil), t.drifts...)
}

// phaseResult is what one timed phase, or several merged, measured over
// all cameras. Latency percentiles and closed-loop throughput are kept per
// window of consecutive results, so a stall that spoils one window moves
// their medians little.
type phaseResult struct {
	elapsed time.Duration // phase start to last result
	offered int
	served  int
	dropped int
	bad     int // out-of-order, wrong-frame or missing results
	full    int
	drifts  int       // drift events the phase's tracker saw
	lat     []float64 // ms, camera after camera, each in seq order
	genLag  []float64 // ms; open loop only
	allocs  uint64
	closed  bool // one camera, closed loop

	p50s, p95s []float64 // per-window latency percentiles, ms
	rates      []float64 // closed loop: per-window results per second
}

func (p *phaseResult) fps() float64 { return float64(p.served) / p.elapsed.Seconds() }

// add folds a camera's results into the phase and computes its windows.
func (p *phaseResult) add(c *cam) {
	p.offered += c.sent
	p.served += c.served
	p.dropped += c.dropped
	p.bad += c.bad + c.sent - c.next
	p.full += c.full
	p.lat = append(p.lat, c.lat...)
	for _, w := range windows(len(c.lat)) {
		p.addWindow(c.lat[w[0]:w[1]])
		if span := c.recv[w[1]-1] - c.recv[w[0]]; p.closed && span > 0 {
			p.rates = append(p.rates, float64(w[1]-w[0]-1)/span)
		}
	}
}

// addWindow adds one window's latency percentiles.
func (p *phaseResult) addWindow(lat []float64) {
	lat = append([]float64(nil), lat...)
	p.p50s = append(p.p50s, quantile(lat, 0.5))
	p.p95s = append(p.p95s, quantile(lat, 0.95))
}

// merge folds another phase of the same workload into p, keeping its
// windows but not its raw samples.
func (p *phaseResult) merge(q phaseResult) {
	p.elapsed += q.elapsed
	p.offered += q.offered
	p.served += q.served
	p.dropped += q.dropped
	p.bad += q.bad
	p.full += q.full
	p.drifts += q.drifts
	p.allocs += q.allocs
	p.closed = q.closed
	p.p50s = append(p.p50s, q.p50s...)
	p.p95s = append(p.p95s, q.p95s...)
	p.rates = append(p.rates, q.rates...)
}

// closedLoop offers frames to one camera as fast as it serves them, with
// inFlight frames in flight, for d. A frame's latency runs from its offer
// to its result.
func closedLoop(ctx context.Context, c *cam, inFlight int, d time.Duration) phaseResult {
	c.tokens = make(chan struct{}, inFlight)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	c.results = c.st.Run(ctx, c.in)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(c.in)
		for {
			select {
			case c.tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			now := time.Since(start)
			if now >= d || !c.offer(now) {
				return
			}
		}
	}()
	c.collect(start, nil)
	end := time.Now()
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	p := phaseResult{elapsed: end.Sub(start), allocs: ms1.Mallocs - ms0.Mallocs, closed: true}
	p.add(c)
	return p
}

// scheduler yields the open-loop schedule: which camera is offered the
// next frame, and when it is due relative to phase start. ok is false
// when the schedule has ended.
type scheduler func() (cam int, due time.Duration, ok bool)

// openLoop paces every camera from one absolute schedule on a single
// goroutine, whatever the server does. Latency runs from a
// frame's due time, so a stall is charged to every frame it delays; the
// driver's own lateness is returned as genLag.
func openLoop(ctx context.Context, cams []*cam, next scheduler, tr *tracker) phaseResult {
	capacity := 0
	for _, c := range cams {
		capacity += len(c.due)
	}
	lag := make([]float64, 0, capacity) // allocated before allocations are counted
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, c := range cams {
		c.results = c.st.Run(ctx, c.in)
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, c := range cams {
				close(c.in)
			}
		}()
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for {
			ci, due, ok := next()
			if !ok {
				return
			}
			if w := due - time.Since(start); w > 0 {
				timer.Reset(w)
				select {
				case <-timer.C:
				case <-ctx.Done():
					return
				}
			}
			lag = append(lag, float64(time.Since(start)-due)/1e6)
			if !cams[ci].offer(due) {
				return
			}
		}
	}()
	var cw sync.WaitGroup
	for _, c := range cams {
		cw.Add(1)
		go func(c *cam) {
			defer cw.Done()
			c.collect(start, tr)
		}(c)
	}
	cw.Wait()
	end := time.Now()
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	p := phaseResult{elapsed: end.Sub(start), genLag: lag, allocs: ms1.Mallocs - ms0.Mallocs}
	for _, c := range cams {
		p.add(c)
	}
	return p
}

// evenSchedule offers n frames at rate per second, round-robin over cams.
func evenSchedule(n, cams int, rate float64) scheduler {
	i := 0
	return func() (int, time.Duration, bool) {
		if i >= n {
			return 0, 0, false
		}
		c, due := i%cams, time.Duration(float64(i)/rate*1e9)
		i++
		return c, due, true
	}
}

// burstSchedule offers frames at a fixed aggregate rate for d. Each period
// is split into one slot per camera; during camera k's slot it gets
// burst times the share of each other camera, so bursts move round the
// fleet while the aggregate rate stays fixed. Cameras are picked by
// smooth weighted round-robin, so the schedule is deterministic.
func burstSchedule(d time.Duration, cams int, rate float64, period time.Duration, burst int) scheduler {
	i := 0
	credit := make([]int, cams)
	return func() (int, time.Duration, bool) {
		due := time.Duration(float64(i) / rate * 1e9)
		if due >= d {
			return 0, 0, false
		}
		i++
		hot := int(due%period) * cams / int(period)
		total, best := 0, 0
		for k := range credit {
			w := 1
			if k == hot {
				w = burst
			}
			credit[k] += w
			total += w
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		return best, due, true
	}
}

// resultHash folds everything Result.Fingerprint covers into 64 bits
// without allocating, so it can run inside a timed phase.
func resultHash(r *odin.StreamResult) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	u := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	s := func(v string) {
		u(uint64(len(v)))
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= prime
		}
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	u(uint64(int64(r.ClusterID)))
	u(r.ModelGen)
	if r.RecoveryPending {
		u(1)
	} else {
		u(0)
	}
	u(uint64(r.Fidelity))
	u(uint64(int64(r.Count)))
	f(r.SimLatency)
	u(uint64(len(r.ModelsUsed)))
	for _, m := range r.ModelsUsed {
		s(m)
	}
	if r.Drift != nil {
		s(r.Drift.Cluster.Label)
		u(uint64(int64(r.Drift.NumSeeds)))
	}
	u(uint64(len(r.Detections)))
	for _, d := range r.Detections {
		u(uint64(int64(d.Box.Class)))
		f(d.Box.X)
		f(d.Box.Y)
		f(d.Box.W)
		f(d.Box.H)
		f(d.Score)
	}
	return h
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// window is the number of consecutive results a windowed statistic
// covers: enough that a window's p95 has fifty samples beyond it.
const window = 1000

// windows splits n results into consecutive windows of about window
// results each; fewer than window results make one window.
func windows(n int) [][2]int {
	if n == 0 {
		return nil
	}
	k := max(1, n/window)
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// median of a copy of xs.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// liveHeapMB is the live heap after a full collection, in MiB. Callers
// drop their own inputs and results first, so what remains is the
// server's.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
