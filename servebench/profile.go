package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto documents that
// runtime/pprof writes, and the folding rules that turn CPU, block and
// mutex samples into per-layer numbers. The standard library has no public
// profile parser and the benchmark takes no dependencies, so only the
// fields folding needs are decoded: sample types, samples, locations (with
// inlined lines), functions and the string table.

// profile is a decoded pprof profile. Each sample's stack lists function
// names leaf first, inlined callees before their callers.
type profile struct {
	types   []string // sample value types, e.g. "samples", "cpu", "delay"
	samples []sample
}

type sample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type in each sample's
// values.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (have %v)", typ, p.types)
}

// parseProfile decodes a pprof profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		typeIdx []int64 // string index of each sample type's name
		raws    []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, bb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, s)
	}
	for _, rs := range raws {
		if len(rs.values) != len(p.types) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(rs.values), len(p.types))
		}
		s := sample{values: rs.values}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				name, err := str(funcs[f])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message. For varint
// and fixed-width fields v holds the value; for length-delimited fields b
// holds the payload.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// unpacked varint, or a packed run.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// layerOf maps a function name to the module layer it belongs to: the last
// element of its package path ("odin/internal/tensor.(*Mat).At" →
// "tensor"), "stream" for the root odin facade, and "runtime" for the Go
// runtime and its internal packages. Everything else is "other".
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "odin":
		return "stream"
	case strings.HasPrefix(pkg, "odin/internal/"):
		return pkg[len("odin/internal/"):]
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// Pipeline stages a CPU sample is charged to by its stack.
const (
	stageProject = "project"
	stageAdvance = "advance"
	stageDetect  = "detect"
	stageCount   = "count"
	stageTrain   = "train"
	stageKernel  = "kernel" // pool goroutine: kernel work with no caller frames
	stageOther   = "other"
)

// stageMarkers map a function-name prefix to the stage whose call it
// opens. They are matched leaf first, so the innermost stage call wins:
// advanceAll calls projectAll, and projection is charged to project.
var stageMarkers = []struct{ prefix, stage string }{
	{"odin/internal/core.(*Odin).projectAll", stageProject},
	{"odin/internal/core.(*Odin).Project", stageProject},
	{"odin/internal/core.(*Odin).advanceAll", stageAdvance},
	{"odin/internal/core.(*Odin).Advance", stageAdvance},
	{"odin/internal/core.(*Odin).executeCount", stageCount},
	{"odin/internal/core.(*Odin).executeBatched", stageDetect},
	{"odin/internal/core.(*Odin).Execute", stageDetect},
}

// stageOf charges a stack to one pipeline stage. Training wins wherever it
// appears (inline recovery training runs under advance); otherwise the
// innermost stage marker decides. tensor.Parallel's pool goroutines carry
// no caller frames, so their samples are "kernel" and are split across
// stages afterwards (see foldCPU).
func stageOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "odin/internal/dispatch.(*Trainer)") ||
			strings.HasPrefix(fn, "odin/internal/core.(*ModelManager).buildModel") {
			return stageTrain
		}
	}
	for _, fn := range stack {
		for _, m := range stageMarkers {
			if strings.HasPrefix(fn, m.prefix) {
				return m.stage
			}
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[len(stack)-1], "odin/internal/tensor.ensureWorkers") {
		return stageKernel
	}
	return stageOther
}

// cpuFold is a CPU profile folded by layer and by stage, in nanoseconds.
type cpuFold struct {
	total   int64
	self    map[string]int64 // leaf function's layer -> self time
	stage   map[string]int64 // stage -> inclusive time, kernel samples split in
	observe int64            // inclusive time under cluster.(*Set).Observe
	kernel  int64            // pool-goroutine kernel time without caller frames
}

// foldCPU folds a CPU profile. Kernel samples from pool goroutines are
// split across stages in proportion to the tensor self time each stage
// accrued on its own goroutine — the stages' measured share of kernel
// work — since the pool's stacks cannot name their caller.
func foldCPU(p *profile) (cpuFold, error) {
	vi, err := p.valueIndex("cpu")
	if err != nil {
		return cpuFold{}, err
	}
	f := cpuFold{self: map[string]int64{}, stage: map[string]int64{}}
	kernelBy := map[string]int64{}
	for _, s := range p.samples {
		v := s.values[vi]
		f.total += v
		if len(s.stack) == 0 {
			f.self["other"] += v
			continue
		}
		f.self[layerOf(s.stack[0])] += v
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "odin/internal/cluster.(*Set).Observe") {
				f.observe += v
				break
			}
		}
		st := stageOf(s.stack)
		if st == stageKernel {
			f.kernel += v
			continue
		}
		f.stage[st] += v
		if layerOf(s.stack[0]) == "tensor" {
			kernelBy[st] += v
		}
	}
	var kernelSum int64
	for _, v := range kernelBy {
		kernelSum += v
	}
	if kernelSum == 0 {
		f.stage[stageOther] += f.kernel
		return f, nil
	}
	for st, v := range kernelBy {
		f.stage[st] += int64(float64(f.kernel) * float64(v) / float64(kernelSum))
	}
	return f, nil
}

// waitFold sums the delay of block or mutex profile samples whose stack
// satisfies match, in nanoseconds.
func waitFold(p *profile, match func(stack []string) bool) (int64, error) {
	vi, err := p.valueIndex("delay")
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, s := range p.samples {
		if match(s.stack) {
			sum += s.values[vi]
		}
	}
	return sum, nil
}

// inStack reports whether any frame starts with prefix.
func inStack(prefix string) func([]string) bool {
	return func(stack []string) bool {
		for _, fn := range stack {
			if strings.HasPrefix(fn, prefix) {
				return true
			}
		}
		return false
	}
}

// lockedFrom matches mutex-profile stacks whose sync.Mutex was released
// by a function of the given layer: the first frame past the sync and
// runtime frames at the leaf.
func lockedFrom(layer string) func([]string) bool {
	return func(stack []string) bool {
		for _, fn := range stack {
			if strings.HasPrefix(fn, "sync.") || layerOf(fn) == "runtime" {
				continue
			}
			return layerOf(fn) == layer
		}
		return false
	}
}
