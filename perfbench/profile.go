package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The module has no
// dependencies, so this file decodes the few messages attribution needs:
// samples (location ids and values), locations (their inlined lines),
// functions (their names) and the string table.

// stack is one decoded sample: its CPU nanoseconds and the function
// names on its stack, leaf first, inlined callees before their callers.
type stack struct {
	ns     int64
	frames []string
}

// profile field numbers (profile.proto).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
	wire   int
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits a message into its fields. Only the wire types a pprof
// profile uses (varint, 64-bit, length-delimited, 32-bit) are accepted.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 2:
			l, m, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(b)-m) < l {
				return nil, errors.New("profile: truncated field")
			}
			f.bytes = b[m : m+int(l)]
			n = m + int(l)
		case 5:
			n = 4
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		if n > len(b) {
			return nil, errors.New("profile: truncated field")
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

// uints appends a repeated integer field's values, packed or not.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile into stacks. The sample's
// last value is its CPU time in nanoseconds.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]int64{}    // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	for _, f := range fields {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.bytes))
		case fProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, s := range sub {
				switch s.num {
				case fFunctionID:
					id = s.varint
				case fFunctionName:
					name = int64(s.varint)
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case fLocationID:
					id = s.varint
				case fLocationLine:
					line, err := pbFields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fLineFunction {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileSample:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var rs rawSample
			for _, s := range sub {
				switch s.num {
				case fSampleLocation:
					rs.locs, err = s.uints(rs.locs)
				case fSampleValue:
					rs.vals, err = s.uints(rs.vals)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, rs)
		}
	}
	name := func(fn uint64) string {
		if i, ok := funcName[fn]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stack, 0, len(samples))
	for _, rs := range samples {
		if len(rs.vals) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		st := stack{ns: int64(rs.vals[len(rs.vals)-1])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				st.frames = append(st.frames, name(fn))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// modulePrefix is the import-path prefix of the repository's modules.
const modulePrefix = "repro/internal/"

// gcRoots are the runtime's background collector entry points. A stack
// through one of them is garbage-collection work no module asked for.
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime._GC",
}

// schedRoots are goroutine-switch paths that run on the scheduler's own
// stack, so the profiler records no caller. In this program every
// goroutine switch inside a run is a simulated-process handoff (one
// goroutine per proc, resumed and yielded over channels), so they count
// to the simulation kernel.
var schedRoots = []string{
	"runtime.mcall",
	"runtime.park_m",
	"runtime.goschedImpl",
	"runtime.goexit0",
	"runtime.schedule",
}

// moduleOf charges a stack to a layer: the innermost frame of one of
// the repository's modules names it (repro/internal/workload/tpch
// counts to workload); the benchmark's own client loops count to
// workload, whose loops they stand in for; background collection
// counts to gc and scheduler-stack switches to sim. Anything else is
// unattributed and returns "".
func moduleOf(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			return "workload"
		}
	}
	for _, fn := range frames {
		for _, r := range gcRoots {
			if fn == r {
				return "gc"
			}
		}
	}
	if n := len(frames); n > 0 {
		for _, r := range schedRoots {
			if frames[n-1] == r {
				return "sim"
			}
		}
	}
	return ""
}

// attribution is a profile's CPU time by layer.
type attribution struct {
	totalNs int64
	byLayer map[string]int64 // "" holds the unattributed time
}

func attribute(stacks []stack) attribution {
	a := attribution{byLayer: map[string]int64{}}
	for _, s := range stacks {
		a.totalNs += s.ns
		a.byLayer[moduleOf(s.frames)] += s.ns
	}
	return a
}

// frac is a layer's share of the profiled CPU time.
func (a attribution) frac(layer string) float64 {
	if a.totalNs == 0 {
		return 0
	}
	return float64(a.byLayer[layer]) / float64(a.totalNs)
}
