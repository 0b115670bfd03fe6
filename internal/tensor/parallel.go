package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the shared parallel substrate for every kernel in the
// repository. Instead of spawning goroutines and filling a fresh channel on
// every call (as the old tensor.parallelRows and nn.parallelFor both did),
// a persistent pool of workers pulls chunk ranges off an atomic cursor.
// Job headers are recycled, and hot kernels bind their operands into
// recycled Tasks values instead of closures, so a fan-out allocates
// nothing in steady state.

// task is a loop body as the pool sees it: one chunk at a time.
type task interface{ runRange(start, end int) }

// job is the reusable header of one parallel invocation. Workers (and the
// submitting goroutine) claim half-open ranges [start, end) by advancing
// the cursor until n is exhausted. The WaitGroup counts *chunks*, not
// queued copies: the submitter's Wait returns as soon as every chunk has
// run, no matter whether the queued copies were ever dequeued — so a
// submitter that ends up doing all the work itself (e.g. nested Parallel
// while every worker is busy) never blocks on the queue, and can recycle
// the header at once.
//
// The cursor carries the invocation's generation in its high 32 bits, and
// every queued ticket carries the generation it was issued for. A ticket
// claims chunks only while the generations match, so a stale ticket that a
// worker dequeues after the header has been recycled (or reused by a later
// invocation) is a no-op that touches nothing but the cursor.
type job struct {
	body task
	gen  uint32 // owned by the submitter between acquisition and recycle
	next atomic.Uint64
	wg   sync.WaitGroup
}

// ticket is one claim on a job, as queued to the pool's workers.
type ticket struct {
	j        *job
	gen      uint32
	n, chunk int
}

// run claims and executes chunks until the ticket's invocation is drained
// (or over), marking one WaitGroup unit per completed chunk. A claimed
// chunk keeps the invocation alive: the submitter waits for it before
// recycling, so body is never read across a reuse.
func (t ticket) run() {
	j := t.j
	for {
		v := j.next.Load()
		start := int(uint32(v))
		if uint32(v>>32) != t.gen || start >= t.n {
			return
		}
		if !j.next.CompareAndSwap(v, v+uint64(t.chunk)) {
			continue
		}
		j.body.runRange(start, min(start+t.chunk, t.n))
		j.wg.Done()
	}
}

var (
	parMu      sync.Mutex
	parTarget  atomic.Int64 // workers Parallel fans out to (incl. the caller)
	parStarted int          // background worker goroutines launched so far
	jobCh      chan ticket
)

func init() {
	parTarget.Store(int64(runtime.GOMAXPROCS(0)))
}

// Parallelism returns the number of workers Parallel fans out to, the
// submitting goroutine included.
func Parallelism() int { return int(parTarget.Load()) }

// SetParallelism sets the worker count used by Parallel (the submitting
// goroutine counts as one worker). n < 1 resets to GOMAXPROCS. Background
// workers are started lazily and never torn down; raising the value above
// GOMAXPROCS is mainly useful to exercise the concurrent paths in tests.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	parTarget.Store(int64(n))
}

// ensureWorkers launches background workers so at least want-1 helpers
// exist alongside the caller.
func ensureWorkers(want int) {
	parMu.Lock()
	defer parMu.Unlock()
	if jobCh == nil {
		jobCh = make(chan ticket, 256)
	}
	for parStarted < want-1 {
		parStarted++
		go func() {
			for t := range jobCh {
				t.run()
			}
		}()
	}
}

// parallelMinWork is the estimated scalar-op count below which fan-out
// costs more than it saves and the loop runs inline.
const parallelMinWork = 1 << 17

// runsInline reports whether Parallel would run a loop of this size on the
// calling goroutine. Kernels consult it to call their range function
// directly, so sub-threshold invocations (and every invocation on a
// single-core runner) skip the task pool altogether.
func runsInline(n, work int) bool {
	w := int(parTarget.Load())
	if w > n {
		w = n
	}
	return w <= 1 || work < parallelMinWork
}

// Tasks runs one loop body, Fn, over operands bound per call. It is the
// allocation-free form of Parallel: a range closure escapes to the heap as
// soon as work really fans out, because the pool's workers must reach it,
// whereas Tasks copies the operands into a recycled task whose job header
// is recycled with it. Declare one package-level Tasks per hot kernel; the
// zero free list is ready to use. A Tasks value must not be copied.
type Tasks[A any] struct {
	// Fn runs the loop body over [start, end); args points at the task's
	// own copy of the operands and must not be retained.
	Fn func(args *A, start, end int)

	// free holds idle tasks: a locked stack rather than a sync.Pool, so
	// reuse survives garbage collections and the race detector.
	mu   sync.Mutex
	free []*boundTask[A]
}

// boundTask is one Tasks invocation in flight.
type boundTask[A any] struct {
	job
	args  A
	owner *Tasks[A]
}

func (t *boundTask[A]) runRange(start, end int) { t.owner.Fn(&t.args, start, end) }

func (t *boundTask[A]) recycle() {
	var zero A
	t.args = zero // idle tasks must not pin their last operands
	ts := t.owner
	ts.mu.Lock()
	ts.free = append(ts.free, t)
	ts.mu.Unlock()
}

// Parallel runs Fn over chunked subranges of [0, n) with args bound, with
// the same fan-out rule as the package-level Parallel.
func (ts *Tasks[A]) Parallel(n, work int, args A) {
	w := int(parTarget.Load())
	if work < parallelMinWork {
		w = 1
	}
	ts.run(n, w, args)
}

// run executes Fn over [0, n) on at most w executors, the caller included,
// and recycles the task once every chunk has run.
func (ts *Tasks[A]) run(n, w int, args A) {
	if n <= 0 {
		return
	}
	var t *boundTask[A]
	ts.mu.Lock()
	if k := len(ts.free); k > 0 {
		t = ts.free[k-1]
		ts.free[k-1] = nil
		ts.free = ts.free[:k-1]
	}
	ts.mu.Unlock()
	if t == nil {
		t = &boundTask[A]{owner: ts}
		t.body = t
	}
	t.args = args
	if w > n {
		w = n
	}
	if w <= 1 {
		ts.Fn(&t.args, 0, n)
	} else {
		t.dispatch(n, w)
	}
	t.recycle()
}

// closures serves the closure-taking entry points. Their closures still
// escape once work fans out; hot kernels use a Tasks value of their own.
var closures = Tasks[func(start, end int)]{
	Fn: func(fn *func(start, end int), start, end int) { (*fn)(start, end) },
}

// Parallel runs fn over chunked subranges of [0, n). When work — an
// estimate of the total scalar operations — is large enough to amortise
// hand-off, chunks are distributed across the persistent worker pool; the
// caller participates, so the loop always makes progress even when every
// background worker is busy. fn must be safe to run concurrently on
// disjoint ranges.
func Parallel(n, work int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	w := int(parTarget.Load())
	if w > n {
		w = n
	}
	if w <= 1 || work < parallelMinWork {
		fn(0, n)
		return
	}
	closures.run(n, w, fn)
}

// ParallelWorkers is the frame-level sharding primitive of the streaming
// pipeline: it runs fn over chunked subranges of [0, n) with the fan-out
// capped at workers concurrent executors (the caller included), independent
// of the global parallelism target and with no minimum-work gate — callers
// use it when each index is a whole frame's worth of compute. Chunks are
// claimed off the same persistent worker pool Parallel uses. fn must be
// safe to run concurrently on disjoint ranges; which indices land on which
// worker is unspecified, so determinism requires each index to write only
// its own output slot.
func ParallelWorkers(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	closures.run(n, workers, fn)
}

// dispatch fans j out across w executors via the persistent worker pool
// and returns once every chunk has run.
func (j *job) dispatch(n, w int) {
	ensureWorkers(w)

	// Oversubscribe chunks ×4 so a straggler worker cannot hold the whole
	// loop hostage; the cursor hands out the slack dynamically.
	chunk := max((n+4*w-1)/(4*w), 1)
	chunks := (n + chunk - 1) / chunk
	j.gen++
	t := ticket{j: j, gen: j.gen, n: n, chunk: chunk}
	j.wg.Add(chunks)
	j.next.Store(uint64(t.gen) << 32)
	for h := 0; h < w-1 && h < chunks-1; h++ {
		// Non-blocking: if the queue is full, the caller simply runs the
		// remainder itself — blocking here could deadlock with every
		// worker submitting.
		select {
		case jobCh <- t:
		default:
			h = chunks // queue full; stop offering copies
		}
	}
	t.run()
	j.wg.Wait()
}
