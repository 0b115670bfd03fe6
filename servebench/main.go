// Command servebench is the repository's serving benchmark. It drives the
// public odin.Server/Stream API through one workload — steady or fleet —
// on inputs generated from its seed, checks the outputs, and
// prints one JSON result line last:
//
//	bash servebench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds every end-to-end metric, measured with
// tracing off; with --trace 1 it holds every per-layer metric, taken from
// public counters, runtime/metrics and CPU, block and mutex profiles
// around a separate traced phase. --list prints the metric table,
// including which end-to-end metric each per-layer metric should move.
// The process exits 1 when an output check fails and 2 when the run
// cannot complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"odin/internal/tensor"
)

// sourceRev identifies the program source the binary was built from; run.sh
// sets it at link time to the git commit, or to a digest of the sources
// when the tree is not a git checkout.
var sourceRev = "unknown"

// bench is one invocation: its settings and what it has measured so far.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	rep      *report

	setupTimes []float64 // s, one per set-up
	delays     []float64 // frames from a warm-up's start to its drift event
	recovers   []float64 // s, from a drift result to the first recovered result
}

// report accumulates checks and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
	failedChecks      int
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.failedChecks++
	}
	fmt.Printf("check %-48s %s (%s)\n", name, status, detail)
}

// addPhase counts a timed phase's frames and checks its result ledger:
// every offered frame got exactly one result or drop marker, in order.
func (b *bench) addPhase(name string, p phaseResult) {
	b.rep.attempted += p.offered
	b.rep.failed += p.offered - p.served
	b.rep.check(name+": one result per frame, in order", p.bad == 0 && p.served+p.dropped == p.offered,
		fmt.Sprintf("%d offered, %d served, %d dropped, %d out of order or missing", p.offered, p.served, p.dropped, p.bad))
	lag := ""
	if p.genLag != nil {
		lag = fmt.Sprintf(", generator lag p99 %.3f ms", quantile(p.genLag, 0.99))
	}
	fmt.Printf("phase %s: %.0f frames/s over %.2fs, latency p50 %.3f ms p95 %.3f ms p99 %.3f ms (%d samples)%s\n",
		name, p.fps(), p.elapsed.Seconds(), quantile(p.lat, 0.5), quantile(p.lat, 0.95), quantile(p.lat, 0.99), len(p.lat), lag)
}

// endToEnd sets every end-to-end metric but heap_mb from the timed
// phase and the set-ups.
func (b *bench) endToEnd(p phaseResult) {
	set := b.rep.set
	set("setup_s", median(b.setupTimes))
	if p.closed {
		set("fps", median(p.rates))
	} else {
		set("fps", p.fps())
	}
	set("latency_p50_ms", median(p.p50s))
	set("latency_p95_ms", median(p.p95s))
	set("full_fidelity_frac", ratio(float64(p.full), float64(p.offered)))
	mean := 0.0
	for _, d := range b.delays {
		mean += d / float64(len(b.delays))
	}
	set("detect_delay_frames", mean)
	set("recover_s", median(b.recovers))
	set("allocs_per_frame", ratio(float64(p.allocs), float64(p.served)))
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "steady or fleet")
	seed := flag.Uint64("seed", 1, "input seed (non-zero)")
	seconds := flag.Int("seconds", 10, "timed-phase length in seconds")
	trace := flag.Int("trace", 0, "1 measures per-layer metrics in a traced run")
	list := flag.Bool("list", false, "print the workloads and metric table and exit")
	flag.Parse()
	if *list {
		printTable()
		return 0
	}
	run, ok := map[string]func(*bench, context.Context) error{
		"steady": (*bench).runSteady,
		"fleet":  (*bench).runFleet,
	}[*workload]
	if !ok || *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench --workload steady|fleet --seed N --seconds S --trace 0|1")
		return 2
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		rep: &report{values: map[string]float64{}},
	}
	printEnv(b)
	if err := run(b, context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: b.rep.failedChecks == 0, Attempted: b.rep.attempted, Failed: b.rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := b.rep.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "servebench: metric %s not measured (%v)\n", d.Name, v)
			return 2
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Printf("metric %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printEnv stamps the run with the machine and build it ran on.
func printEnv(b *bench) {
	env := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"avx2":       tensor.Vectorized(),
		"go":         runtime.Version(),
		"source":     sourceRev,
	}
	line, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", line)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, where there is one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable prints the workloads and the metric table.
func printTable() {
	for _, w := range workloads {
		fmt.Printf("workload %-7s %s\n", w.Name, w.Why)
	}
	for _, d := range endToEnd {
		fmt.Printf("end_to_end %-22s %-9s better %-6s bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	for _, d := range perLayer {
		fmt.Printf("per_layer %-36s %-7s better %-6s moves %s on %s\n", d.Name, d.Unit, d.Better, d.Moves, d.On)
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
