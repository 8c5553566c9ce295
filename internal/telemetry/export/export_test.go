package export_test

// The flight-recorder contract tests drive a real segments-32 analysis
// (the same recipe the CI perf-smoke artifact uses) through a recorder
// and then hold the two export formats to their promises: the JSONL log
// must round-trip byte-identically through ReadJSONL → WriteJSONL, and
// the Chrome trace must satisfy the trace-event schema Perfetto loads.

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// recordFlight runs the canonical segments-32 workload (workload seed 5,
// 4 CPUs, 30% unlocked, WO, sim seed 1) with a flight recorder attached
// and returns the recorder plus the analysis.
func recordFlight(t *testing.T) (*export.Recorder, *core.Analysis) {
	t.Helper()
	w := workload.Random(workload.RandomParams{
		Seed: 5, CPUs: 4, Segments: 32, UnlockedFraction: 0.3,
	})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	fr := export.NewRecorder()
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	return fr, a
}

func TestFlightRecordsAnalysisStructure(t *testing.T) {
	fr, a := recordFlight(t)
	recs := fr.Records()
	counts := map[string]int{}
	edges := map[string]int{}
	for _, rec := range recs {
		counts[rec.Kind]++
		if rec.Kind == export.KindEdge {
			edges[rec.Edge.Origin]++
		}
	}
	if counts[export.KindMeta] != 1 {
		t.Fatalf("want 1 meta record, got %d", counts[export.KindMeta])
	}
	if counts[export.KindEvent] != a.NumEvents {
		t.Errorf("event records = %d, want %d", counts[export.KindEvent], a.NumEvents)
	}
	// Race records cover every race, the counted sync races included.
	if int64(counts[export.KindRace]) != a.NumRaces() {
		t.Errorf("race records = %d, want %d", counts[export.KindRace], a.NumRaces())
	}
	if counts[export.KindPartition] != len(a.Partitions) {
		t.Errorf("partition records = %d, want %d", counts[export.KindPartition], len(a.Partitions))
	}
	if counts[export.KindPhase] < 5 {
		t.Errorf("phase records = %d, want at least the 5 pipeline phases", counts[export.KindPhase])
	}
	// po edges: one per consecutive pair on each stream.
	wantPO := 0
	for _, evs := range a.Trace.PerCPU {
		if len(evs) > 0 {
			wantPO += len(evs) - 1
		}
	}
	if edges["po"] != wantPO {
		t.Errorf("po edges = %d, want %d", edges["po"], wantPO)
	}
	if int64(edges["partner"]) != a.NumRaces() {
		t.Errorf("partner edges = %d, want %d (one per race)", edges["partner"], a.NumRaces())
	}
	if edges["so1"] == 0 {
		t.Error("no so1 edges recorded; the segments workload synchronizes")
	}
}

// The JSONL log is a contract: parsing and re-serializing it must
// reproduce the original bytes exactly, so downstream tooling can
// normalize, filter, and re-emit logs without drift.
func TestFlightJSONLRoundTrip(t *testing.T) {
	fr, _ := recordFlight(t)
	var first bytes.Buffer
	if err := fr.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	recs, err := export.ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != fr.Len() {
		t.Fatalf("parsed %d records, recorder holds %d", len(recs), fr.Len())
	}
	var second bytes.Buffer
	if err := export.WriteJSONL(&second, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("JSONL export → parse → re-export is not byte-identical")
	}
}

// ReadJSONL must reject records with unknown fields: the format is
// versioned by strictness, not by silently dropping what it cannot name.
func TestFlightJSONLRejectsUnknownFields(t *testing.T) {
	_, err := export.ReadJSONL(bytes.NewReader([]byte(`{"ts":1,"kind":"meta","bogus":true}` + "\n")))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

// The Chrome trace must be a single JSON object Perfetto's trace-event
// importer accepts: a traceEvents array where every entry has name, ph,
// ts, pid, and tid; ph is one of the types we emit; timestamps and
// durations are non-negative; and every (pid, tid) lane used by an X or
// i event is named by a thread_name metadata event.
func TestChromeTracePerfettoSchema(t *testing.T) {
	fr, _ := recordFlight(t)
	var buf bytes.Buffer
	if err := fr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&top); err != nil {
		t.Fatalf("trace is not the expected top-level object: %v", err)
	}
	if top.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", top.DisplayTimeUnit)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	named := map[float64]bool{} // tids named by thread_name metadata
	var used []float64
	for i, ev := range top.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		ph := ev["ph"].(string)
		switch ph {
		case "M":
			if ev["name"] == "thread_name" {
				named[ev["tid"].(float64)] = true
			}
			continue
		case "X", "i":
		default:
			t.Fatalf("event %d: unexpected ph %q", i, ph)
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d: bad ts %v", i, ev["ts"])
		}
		if dur, ok := ev["dur"]; ok {
			if d, ok := dur.(float64); !ok || d < 0 {
				t.Fatalf("event %d: bad dur %v", i, dur)
			}
		}
		used = append(used, ev["tid"].(float64))
	}
	for _, tid := range used {
		if !named[tid] && tid != 0 {
			t.Errorf("tid %v used but never named by thread_name metadata", tid)
		}
	}
}

// X events sharing a thread lane must be well nested — that is what the
// lane assignment exists to guarantee; partially overlapping events on
// one lane render as garbage in Perfetto.
func TestChromeTraceLanesWellNested(t *testing.T) {
	fr, _ := recordFlight(t)
	var buf bytes.Buffer
	if err := fr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			TS  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			TID int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	type span struct{ start, end float64 }
	lanes := map[int][]span{}
	for _, ev := range top.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.TID] = append(lanes[ev.TID], span{ev.TS, ev.TS + ev.Dur})
		}
	}
	for tid, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && stack[len(stack)-1].end < s.end {
				t.Fatalf("tid %d: span [%v,%v] partially overlaps enclosing [%v,%v]",
					tid, s.start, s.end, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
}

// Campaign seed summaries become complete events on the "campaign" track
// with their aggregates as args, and never get negative start times.
func TestChromeTraceSeedEvents(t *testing.T) {
	fr := export.NewRecorder()
	fr.Emit(export.Record{TS: 100, Kind: export.KindSeed, Seed: &export.SeedRec{
		Seed: 7, DurNS: 5000, Events: 12, Races: 3, DataRaces: 2,
		Partitions: 2, FirstPartitions: 1, Racy: true,
	}})
	fr.Emit(export.Record{TS: 9000, Kind: export.KindSeed, Seed: &export.SeedRec{
		Seed: 8, DurNS: 4000, Failed: true, Error: "boom",
	}})
	var buf bytes.Buffer
	if err := fr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range top.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		got = append(got, ev.Name)
		if ev.TS < 0 {
			t.Errorf("seed event %q starts before time zero: ts=%v", ev.Name, ev.TS)
		}
		if ev.Name == "seed 7" && ev.Args["races"] != float64(3) {
			t.Errorf("seed 7 args = %v, want races=3", ev.Args)
		}
	}
	sort.Strings(got)
	want := []string{"seed 7", "seed 8 (failed)"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("seed events = %v, want %v", got, want)
	}
}
