package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf writes the few protobuf encodings a canned profile needs.
type pbuf struct{ b []byte }

func (p *pbuf) key(num, wire int) { p.b = binary.AppendUvarint(p.b, uint64(num<<3|wire)) }

func (p *pbuf) varint(num int, v uint64) {
	p.key(num, 0)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(num int, b []byte) {
	p.key(num, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(num int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	p.bytes(num, in)
}

// cannedProfile encodes a gzip-compressed profile with the given sample
// types and samples. Each stack entry is a location, leaf first; a
// location holds one function, or several when callees were inlined into
// it (innermost first, as runtime/pprof writes them).
func cannedProfile(types [2]string, samples []cannedSample) []byte {
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var p pbuf
	for _, t := range types {
		var vt pbuf
		vt.varint(1, str(t))
		vt.varint(2, str("count"))
		p.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	var locs [][]string
	for _, s := range samples {
		var ids []uint64
		for _, loc := range s.stack {
			for _, fn := range loc {
				if _, ok := funcs[fn]; !ok {
					funcs[fn] = uint64(len(funcs) + 1)
					var f pbuf
					f.varint(1, funcs[fn])
					f.varint(2, str(fn))
					p.bytes(5, f.b)
				}
			}
			locs = append(locs, loc)
			ids = append(ids, uint64(len(locs)))
		}
		var sp pbuf
		sp.packed(1, ids...)
		sp.packed(2, uint64(s.values[0]), uint64(s.values[1]))
		p.bytes(2, sp.b)
	}
	for i, loc := range locs {
		var l pbuf
		l.varint(1, uint64(i+1))
		for _, fn := range loc {
			var line pbuf
			line.varint(1, funcs[fn])
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	zw.Close()
	return z.Bytes()
}

type cannedSample struct {
	stack  [][]string
	values [2]int64
}

func loc(fns ...string) []string { return fns }

const (
	runLoop   = "odin.(*Stream).Run.func1"
	batch     = "odin/internal/core.(*Odin).ProcessBatchFid"
	advAll    = "odin/internal/core.(*Odin).advanceAllFid"
	poolEntry = "odin/internal/tensor.ensureWorkers.func1"
	jobRun    = "odin/internal/tensor.(*job).run"
)

func TestFoldCPUCannedProfile(t *testing.T) {
	ms := int64(time.Millisecond)
	prof := cannedProfile([2]string{"samples", "cpu"}, []cannedSample{
		{ // projection: kernel self time on the serving goroutine, under advanceAll
			stack: [][]string{loc("odin/internal/tensor.matmulBias"), loc("odin/internal/nn.(*Dense).Forward"),
				loc("odin/internal/gan.(*DAGAN).ProjectBatch"), loc("odin/internal/core.(*Odin).projectAll"),
				loc(advAll), loc(batch), loc(runLoop)},
			values: [2]int64{3, 30 * ms},
		},
		{ // cluster observation inlined into advanceLocked
			stack:  [][]string{loc("odin/internal/cluster.(*Set).Observe", "odin/internal/core.(*Odin).advanceLocked"), loc(advAll), loc(batch), loc(runLoop)},
			values: [2]int64{1, 10 * ms},
		},
		{ // batched detection sharded onto a pool goroutine: the closure names its stage
			stack: [][]string{loc("odin/internal/tensor.axpy"), loc("odin/internal/detect.(*GridDetector).DetectBatch"),
				loc("odin/internal/core.(*Odin).executeBatched.func1"), loc(jobRun), loc(poolEntry)},
			values: [2]int64{2, 20 * ms},
		},
		{ // a kernel chunk on a pool goroutine: no caller frames
			stack:  [][]string{loc("odin/internal/tensor.matmulBias.func1"), loc(jobRun), loc(poolEntry)},
			values: [2]int64{4, 40 * ms},
		},
		{ // recovery training on the trainer goroutine
			stack: [][]string{loc("odin/internal/nn.(*Conv2D).Backward"), loc("odin/internal/detect.(*GridDetector).Fit"),
				loc("odin/internal/core.(*ModelManager).buildModel"), loc("odin/internal/dispatch.(*Trainer).runScratch"),
				loc("odin/internal/dispatch.(*Trainer).loop")},
			values: [2]int64{5, 50 * ms},
		},
		{ // allocation inside the counting kernel
			stack:  [][]string{loc("runtime.mallocgc"), loc("odin/internal/detect.CountBatch"), loc("odin/internal/core.(*Odin).executeCount"), loc(batch), loc(runLoop)},
			values: [2]int64{1, 5 * ms},
		},
		{ // nothing known: the Run loop's own bookkeeping
			stack:  [][]string{loc("sync.(*Mutex).Lock"), loc(runLoop)},
			values: [2]int64{1, 2 * ms},
		},
	})
	p, err := parseProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	f, err := foldCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.total != 157*ms {
		t.Errorf("total = %v, want 157ms", time.Duration(f.total))
	}
	wantSelf := map[string]int64{"tensor": 90 * ms, "cluster": 10 * ms, "nn": 50 * ms, "runtime": 5 * ms, "other": 2 * ms}
	if len(f.self) != len(wantSelf) {
		t.Errorf("self layers = %v, want %v", f.self, wantSelf)
	}
	for l, v := range wantSelf {
		if f.self[l] != v {
			t.Errorf("self[%s] = %v, want %v", l, time.Duration(f.self[l]), time.Duration(v))
		}
	}
	// The 40ms pool kernel splits 30:20 between project and detect, the
	// stages' tensor self time on their own stacks.
	wantStage := map[string]int64{stageProject: 54 * ms, stageDetect: 36 * ms, stageAdvance: 10 * ms,
		stageTrain: 50 * ms, stageCount: 5 * ms, stageOther: 2 * ms}
	if len(f.stage) != len(wantStage) {
		t.Errorf("stages = %v, want %v", f.stage, wantStage)
	}
	for st, v := range wantStage {
		if f.stage[st] != v {
			t.Errorf("stage[%s] = %v, want %v", st, time.Duration(f.stage[st]), time.Duration(v))
		}
	}
	if f.observe != 10*ms || f.kernel != 40*ms {
		t.Errorf("observe = %v, kernel = %v, want 10ms and 40ms", time.Duration(f.observe), time.Duration(f.kernel))
	}
}

func TestWaitFoldCannedProfile(t *testing.T) {
	prof := cannedProfile([2]string{"contentions", "delay"}, []cannedSample{
		{stack: [][]string{loc("sync.(*Mutex).Unlock"), loc(advAll), loc(batch)}, values: [2]int64{2, 7}},
		{stack: [][]string{loc("sync.(*Mutex).Unlock"), loc("odin/internal/dispatch.(*Batcher).flush")}, values: [2]int64{1, 3}},
		{stack: [][]string{loc("runtime.selectgo"), loc("odin/internal/dispatch.(*Session).SubmitFid"), loc("odin.(*Stream).runQoS")}, values: [2]int64{4, 11}},
		{stack: [][]string{loc("runtime.selectgo"), loc("odin/internal/qos.(*Queue).Push"), loc("odin.(*Stream).runQoS.func1")}, values: [2]int64{1, 13}},
	})
	p, err := parseProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		match func([]string) bool
		want  int64
	}{
		{"core lock", lockedFrom("core"), 7},
		{"dispatch submit", inStack("odin/internal/dispatch.(*Session).Submit"), 11},
		{"admission", inStack("odin/internal/qos.(*Queue).Push"), 13},
	} {
		got, err := waitFold(p, c.match)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s delay = %d, want %d", c.name, got, c.want)
		}
	}
	if _, err := foldCPU(p); err == nil {
		t.Error("foldCPU accepted a profile without cpu samples")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"odin/internal/tensor.(*Mat).At":               "tensor",
		"odin/internal/core.(*Odin).projectAll.func1":  "core",
		"odin.(*Stream).Run.func1":                     "stream",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sync.(*Mutex).Lock":                           "other",
		"main.(*bench).runSteady":                      "other",
		"odin/internal/dispatch.(*Trainer).loop.func2": "dispatch",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	prof := cannedProfile([2]string{"samples", "cpu"}, []cannedSample{
		{stack: [][]string{loc("odin/internal/tensor.axpy")}, values: [2]int64{1, 1}},
	})
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(zr)
	if _, err := parseProfile(raw.Bytes()[:raw.Len()-3]); err == nil {
		t.Error("parseProfile accepted a truncated profile")
	}
}

// TestParseRuntimeProfiles reads what runtime/pprof really writes.
func TestParseRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	runtime.KeepAlive(x)
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f, err := foldCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.total <= 0 || f.self["other"] <= 0 {
		t.Errorf("cpu fold of a busy loop in this test: total %d, self %v", f.total, f.self)
	}
	for _, name := range []string{"block", "mutex"} {
		if _, err := lookupProfile(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
