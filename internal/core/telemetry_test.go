package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestAnalyzeEmitsTelemetry runs the full pipeline on the paper's Figure 2
// workload (seed 674 exhibits the missing-Test&Set races on WO) with
// collection enabled and asserts the detector reported nonzero event,
// edge, race, and SCC counters plus phase timings.
func TestAnalyzeEmitsTelemetry(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()

	w := workload.Figure2()
	res, err := sim.Run(w.Prog, sim.Config{
		Model: memmodel.WO, Seed: 674, InitMemory: w.InitMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(trace.FromExecution(res.Exec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.RaceFree() {
		t.Fatal("Figure2 on WO seed 674 should exhibit data races")
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"detect.analyses",
		"detect.events",
		"detect.hb_edges",
		"detect.aug_edges",
		"detect.races",
		"detect.data_races",
		"detect.sync_races",
		"detect.partitions",
		"detect.first_partitions",
		"detect.scc.components",
		"detect.vc_builds",
		"detect.vc_components",
		"detect.vc_window_queries",
		"graph.vc.builds",
		"detect.sweep.buckets",
		"trace.builds",
		"trace.events.comp",
		"trace.events.sync",
		telemetry.Name("sim.runs", "model", "WO"),
		telemetry.Name("sim.steps", "model", "WO"),
		telemetry.Name("sim.ops", "model", "WO"),
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Gauges["detect.scc.max_size"] <= 1 {
		t.Errorf("detect.scc.max_size = %d, want > 1 (race edges form cycles)",
			snap.Gauges["detect.scc.max_size"])
	}
	// graph.scc.max_size covers every SCC computation (hb1 and G'), so it
	// is at least the per-analysis augmented-graph gauge.
	if snap.Gauges["graph.scc.max_size"] < snap.Gauges["detect.scc.max_size"] {
		t.Errorf("graph.scc.max_size = %d < detect.scc.max_size = %d",
			snap.Gauges["graph.scc.max_size"], snap.Gauges["detect.scc.max_size"])
	}
	// detect.races counts every race; the sweep lists the data races and
	// only counts the synchronization races, which the flight recorder
	// re-derives on demand.
	if got, want := snap.Counters["detect.races"], snap.Counters["detect.data_races"]+snap.Counters["detect.sync_races"]; got != want {
		t.Errorf("detect.races = %d, want data + sync = %d", got, want)
	}
	if got := snap.Counters["detect.sync_races"]; got != a.SyncRaces {
		t.Errorf("detect.sync_races = %d, analysis counted %d", got, a.SyncRaces)
	}
	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("weakrace_detect_sync_races %d\n", a.SyncRaces); !strings.Contains(prom.String(), line) {
		t.Errorf("/metrics exposition lacks %q", line)
	}
	if snap.Counters["detect.race_candidates"] <= 0 {
		t.Errorf("detect.race_candidates = %d, want > 0", snap.Counters["detect.race_candidates"])
	}
	if snap.Gauges["detect.find_races.workers"] < 1 {
		t.Errorf("detect.find_races.workers = %d, want >= 1", snap.Gauges["detect.find_races.workers"])
	}
	// The parallel validator reports its resolved worker budget, even
	// when a small input kept it on the serial path.
	if snap.Gauges["trace.validate.workers"] < 1 {
		t.Errorf("trace.validate.workers = %d, want >= 1", snap.Gauges["trace.validate.workers"])
	}
	// The sweep's per-shard arena high-water marks.
	if snap.Gauges["detect.arena.shards"] < 1 {
		t.Errorf("detect.arena.shards = %d, want >= 1", snap.Gauges["detect.arena.shards"])
	}
	for _, phase := range []string{"sim.run", "trace.build", "detect.analyze", "detect.find_races",
		"detect.sweep.prep", "detect.sweep.scan", "detect.sweep.merge", "detect.sweep.coalesce",
		"trace.validate.streams", "trace.validate.so1", "graph.build.count", "graph.build.fill",
		"detect.partition", "detect.condreach.order"} {
		if snap.Phases[phase].Count == 0 {
			t.Errorf("phase %q has no observations", phase)
		}
	}
	// Consistency: the detector saw exactly the events the trace builder
	// counted.
	if got, want := snap.Counters["detect.events"],
		snap.Counters["trace.events.comp"]+snap.Counters["trace.events.sync"]; got != want {
		t.Errorf("detect.events = %d, trace events = %d", got, want)
	}
	// detect.vc_hb_fastpath_hits is incremented live at the Affects query
	// site, not at flush: Definition-3.3 queries arrive after Analyze.
	// Every race trivially affects itself through an hb1-reflexive pair,
	// so one self-query must land on the clock fast path.
	if snap.Counters["detect.vc_hb_fastpath_hits"] != 0 {
		t.Errorf("detect.vc_hb_fastpath_hits = %d before any Affects query, want 0",
			snap.Counters["detect.vc_hb_fastpath_hits"])
	}
	if !a.Affects(a.DataRaces[0], a.DataRaces[0]) {
		t.Error("a race must affect itself")
	}
	if got := reg.Snapshot().Counters["detect.vc_hb_fastpath_hits"]; got <= 0 {
		t.Errorf("detect.vc_hb_fastpath_hits = %d after a self-Affects query, want > 0", got)
	}
}

// TestAnalyzeDisabledEmitsNothing: with collection off, Analyze must not
// create metrics.
func TestAnalyzeDisabledEmitsNothing(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(false)

	w := workload.Figure2()
	res, err := sim.Run(w.Prog, sim.Config{
		Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(trace.FromExecution(res.Exec), Options{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Phases) != 0 {
		t.Fatalf("disabled registry collected metrics: %+v", snap)
	}
}
