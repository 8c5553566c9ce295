package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smallSize runs every workload in well under a second per loop.
var smallSize = sizes{
	postmortem: pmSize{Segments: 128},
	stream:     streamSize{Executions: 6, MinSegments: 16, MaxSegments: 64},
	campaign:   campaignSize{Programs: 3, Seeds: 4, ReplaySeeds: 1},
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// namedMetrics lists the metrics each workload prints under its own name
// in the human-readable report.
var namedMetrics = map[string][]string{
	"postmortem-xl": {"pm_report_ms", "pm_alloc_mb"},
	"stream-exact":  {"stream_events_per_s", "stream_rtt_p50_ms", "stream_rtt_p90_ms", "stream_alloc_b_per_event"},
	"campaign":      {"campaign_seeds_per_s", "campaign_alloc_kb_per_seed"},
}

// TestSmallRunEmitsEveryMetric runs every workload untraced and traced at
// a small size and checks the result line against BENCHMARK.json: every
// metric by name, with its unit, and every operation correct.
func TestSmallRunEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloadNames[i])
		}
	}
	wantUnits := func(defs []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			b, err := newBench(name, 5, smallSize)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			cfg := runConfig{workload: name, seed: 5, seconds: 0.4, traced: traced, out: t.TempDir()}
			if err := execute(b, cfg, &out); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if err := b.close(); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := wantUnits(bf.EndToEnd)
			if traced {
				want = wantUnits(bf.PerLayer)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, m, got.Unit, unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
			report := out.String()
			named := namedMetrics[name]
			if traced {
				named = []string{"tracing_overhead"}
			}
			for _, m := range named {
				if !strings.Contains(report, m+" ") {
					t.Errorf("%s traced=%v: report does not print %s", name, traced, m)
				}
			}
			if !strings.Contains(report, "calibration_ms=") || !strings.Contains(report, "gomaxprocs=") {
				t.Errorf("%s: report lacks host metadata:\n%s", name, report)
			}
		}
	}
}

// TestWrongReferenceIsAFailure corrupts one reference output per
// workload and checks the loop counts the operations checked against it
// as failed, and that the result is not reported correct.
func TestWrongReferenceIsAFailure(t *testing.T) {
	corrupt := map[string]func(b bench){
		"postmortem-xl": func(b bench) { p := b.(*postmortem); p.want = append(p.want, '!') },
		"stream-exact":  func(b bench) { s := b.(*streamExact); s.want[0] = append(s.want[0], "bogus race") },
		"campaign":      func(b bench) { c := b.(*campaignBench); c.want[0] = append(c.want[0], '!') },
	}
	for _, name := range workloadNames {
		b, err := newBench(name, 5, smallSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		if err := b.reference(); err != nil {
			t.Fatal(err)
		}
		corrupt[name](b)
		l, err := b.run(300*time.Millisecond, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.close(); err != nil {
			t.Fatal(err)
		}
		if l.failed == 0 {
			t.Errorf("%s: %d attempts against a wrong reference, none failed", name, l.attempted)
		}
		if r := endToEndResult(l, 1); r.Correct || r.Failed != l.failed {
			t.Errorf("%s: result correct=%v failed=%d, loop failed=%d", name, r.Correct, r.Failed, l.failed)
		}
	}
}

// TestDefaultSeedIsTheXLTrace pins the default postmortem-xl input to the
// segments-4096 trace the ROADMAP figures were measured on.
func TestDefaultSeedIsTheXLTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the 134k-event trace")
	}
	p := &postmortem{seed: 5, size: fullSize.postmortem}
	if err := p.setup(); err != nil {
		t.Fatal(err)
	}
	if err := p.reference(); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(p.want), "\n", 2)[0]
	const want = "134331 events, 3702648 races (10450 data)"
	if !strings.Contains(first, want) {
		t.Errorf("report header %q, want %q", first, want)
	}
}
