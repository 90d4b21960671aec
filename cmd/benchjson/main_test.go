package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	type benches = map[string]map[string]float64
	cases := []struct {
		name     string
		base     benches
		cur      benches
		wall     bool
		wantOK   bool
		wantLine string // a substring some report line must contain
	}{
		{
			name:     "unchanged",
			base:     benches{"Fig5": {"sim_ms": 10}},
			cur:      benches{"Fig5": {"sim_ms": 10}},
			wantOK:   true,
			wantLine: "(+0.0%)  ok",
		},
		{
			name:     "regression beyond threshold",
			base:     benches{"Fig5": {"sim_ms": 10}},
			cur:      benches{"Fig5": {"sim_ms": 11.5}},
			wantLine: "REGRESSION",
		},
		{
			name:     "improvement",
			base:     benches{"Fig5": {"sim_ms": 10}},
			cur:      benches{"Fig5": {"sim_ms": 5}},
			wantOK:   true,
			wantLine: "(-50.0%)  ok",
		},
		{
			name:     "within threshold",
			base:     benches{"Fig5": {"sim_ms": 10}},
			cur:      benches{"Fig5": {"sim_ms": 10.9}},
			wantOK:   true,
			wantLine: "ok",
		},
		{
			name:     "missing benchmark",
			base:     benches{"Fig5": {"sim_ms": 10}, "VectorizedSpeedup": {"alloc_reduction_x": 24}},
			cur:      benches{"Fig5": {"sim_ms": 10}},
			wantLine: "VectorizedSpeedup                        missing from this run",
		},
		{
			name:     "missing benchmark with only ungated metrics",
			base:     benches{"Fig5": {"sim_ms": 10}, "Table2": {"ns/op": 5}},
			cur:      benches{"Fig5": {"sim_ms": 10}},
			wantOK:   true,
			wantLine: "Table2                                   missing from this run (in the baseline)  ungated",
		},
		{
			name:     "missing ungated benchmark gated under -wall",
			base:     benches{"Fig5": {"sim_ms": 10}, "Table2": {"ns/op": 5}},
			cur:      benches{"Fig5": {"sim_ms": 10}},
			wall:     true,
			wantLine: "Table2                                   missing from this run (in the baseline)  MISSING",
		},
		{
			// SweepParallelism names its second sub-benchmark after
			// runtime.NumCPU(), so a host with another CPU count runs a
			// different name than the snapshot holds.
			name: "machine-dependent sub-benchmark name",
			base: benches{
				"SweepParallelism/parallel=1": {"ns/op": 9, "allocs/op": 3},
				"SweepParallelism/parallel=2": {"ns/op": 5, "allocs/op": 3},
			},
			cur: benches{
				"SweepParallelism/parallel=1": {"ns/op": 9, "allocs/op": 3},
				"SweepParallelism/parallel=8": {"ns/op": 2, "allocs/op": 3},
			},
			wantOK:   true,
			wantLine: "new benchmark SweepParallelism/parallel=8 (no baseline)",
		},
		{
			name:     "missing gated metric",
			base:     benches{"Fig6": {"queries_gaining_2x": 14, "q20_speedup_dop32_vs_1": 6}},
			cur:      benches{"Fig6": {"queries_gaining_2x": 14}},
			wantLine: "q20_speedup_dop32_vs_1 missing from this run",
		},
		{
			name:     "missing ungated metric",
			base:     benches{"Fig6": {"queries_gaining_2x": 14, "ns/op": 5}},
			cur:      benches{"Fig6": {"queries_gaining_2x": 14}},
			wantOK:   true,
			wantLine: "queries_gaining_2x",
		},
		{
			name:     "missing machine metric gated under -wall",
			base:     benches{"Fig6": {"queries_gaining_2x": 14, "allocs/op": 5}},
			cur:      benches{"Fig6": {"queries_gaining_2x": 14}},
			wall:     true,
			wantLine: "allocs/op          missing from this run",
		},
		{
			name:     "ns/op and wall metrics ungated",
			base:     benches{"ExecEngines/vec": {"ns/op": 100, "allocs/op": 10, "vec_speedup_wall": 3}},
			cur:      benches{"ExecEngines/vec": {"ns/op": 900, "allocs/op": 90, "vec_speedup_wall": 1}},
			wantOK:   true,
			wantLine: "",
		},
		{
			name:     "ns/op gated under -wall",
			base:     benches{"ExecEngines/vec": {"ns/op": 100}},
			cur:      benches{"ExecEngines/vec": {"ns/op": 900}},
			wall:     true,
			wantLine: "REGRESSION",
		},
		{
			name:     "wall metric ungated even under -wall",
			base:     benches{"X": {"vec_speedup_wall": 3}},
			cur:      benches{"X": {"vec_speedup_wall": 1}},
			wall:     true,
			wantOK:   true,
			wantLine: "",
		},
		{
			name:     "higher-better _x falling",
			base:     benches{"Fig5": {"linear_overprovision_x": 1.1}},
			cur:      benches{"Fig5": {"linear_overprovision_x": 0.9}},
			wantLine: "REGRESSION",
		},
		{
			name:     "higher-better _x rising",
			base:     benches{"Fig5": {"linear_overprovision_x": 1.1}},
			cur:      benches{"Fig5": {"linear_overprovision_x": 2.2}},
			wantOK:   true,
			wantLine: "(+100.0%)  ok",
		},
		{
			name:     "new benchmark",
			base:     benches{"Fig5": {"sim_ms": 10}},
			cur:      benches{"Fig5": {"sim_ms": 10}, "Layer/wal": {"ns/op": 3}},
			wantOK:   true,
			wantLine: "new benchmark Layer/wal (no baseline)",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lines, ok := compare(c.base, c.cur, 0.10, c.wall)
			report := strings.Join(lines, "\n")
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v\n%s", ok, c.wantOK, report)
			}
			if c.wantLine == "" {
				if len(lines) != 0 {
					t.Fatalf("want no report lines, got\n%s", report)
				}
				return
			}
			if !strings.Contains(report, c.wantLine) {
				t.Fatalf("report lacks %q:\n%s", c.wantLine, report)
			}
		})
	}
}
