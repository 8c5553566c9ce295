package core_test

// Metamorphic equivalence: the parallel race search must be invisible in
// the output. For any workload and any worker count, Analyze yields an
// Analysis identical — races, data-race indices, partitions, first
// partitions, and the rendered report text — to the sequential (Workers: 1)
// path. The merge argument (see findRaces) is that the sorted
// (pair, location) record sequence is a function of the record multiset
// alone, not of which worker produced which record; this test checks that
// claim across ≥50 random workloads, run under -race in CI to also catch
// data races in the pool itself.

import (
	"bytes"
	"reflect"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

func TestParallelFindRacesEquivalent(t *testing.T) {
	models := []memmodel.Model{memmodel.WO, memmodel.RCsc, memmodel.TSO}
	const seeds = 52
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		w := workload.Random(workload.RandomParams{
			Seed:             seed,
			CPUs:             3 + int(seed%3),
			Segments:         3 + int(seed%4),
			UnlockedFraction: float64(seed%4) * 0.15, // race-free through very racy
		})
		model := models[seed%int64(len(models))]
		r, err := sim.Run(w.Prog, sim.Config{
			Model: model, Seed: seed, InitMemory: w.InitMemory,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr := trace.FromExecution(r.Exec)

		seq, err := core.Analyze(tr, core.Options{SkipValidate: true, Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential analyze: %v", seed, err)
		}
		var seqText bytes.Buffer
		if err := report.RenderAnalysis(&seqText, seq); err != nil {
			t.Fatal(err)
		}
		if len(seq.Races) > 0 {
			checked++
		}

		for _, workers := range []int{2, 8} {
			par, err := core.Analyze(tr, core.Options{SkipValidate: true, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(par.Races, seq.Races) {
				t.Fatalf("seed %d workers %d: races differ\n par: %v\n seq: %v",
					seed, workers, par.Races, seq.Races)
			}
			if !reflect.DeepEqual(par.DataRaces, seq.DataRaces) {
				t.Fatalf("seed %d workers %d: data-race indices differ", seed, workers)
			}
			if par.SyncRaces != seq.SyncRaces {
				t.Fatalf("seed %d workers %d: %d sync races, sequential %d", seed, workers, par.SyncRaces, seq.SyncRaces)
			}
			if !reflect.DeepEqual(par.Partitions, seq.Partitions) {
				t.Fatalf("seed %d workers %d: partitions differ", seed, workers)
			}
			if !reflect.DeepEqual(par.FirstPartitions, seq.FirstPartitions) {
				t.Fatalf("seed %d workers %d: first partitions differ", seed, workers)
			}
			var parText bytes.Buffer
			if err := report.RenderAnalysis(&parText, par); err != nil {
				t.Fatal(err)
			}
			if parText.String() != seqText.String() {
				t.Fatalf("seed %d workers %d: report text differs\n--- parallel\n%s--- sequential\n%s",
					seed, workers, parText.String(), seqText.String())
			}
		}
	}
	// The sweep above must have exercised racy traces, not only clean ones.
	if checked < 10 {
		t.Fatalf("only %d racy traces among %d seeds — workload parameters too tame", checked, seeds)
	}
}

// TestParallelAnalysisCorpusEquivalent pins the FULL parallel pipeline —
// the span-filled timestamp pass, the (location, segment-pair)-sharded
// sweep, and its parallel merge, radix sort, and coalesce — on the
// frozen 60-trace corpus: for worker counts {1, 2, 3, 8} the Analysis,
// the rendered report, and the flight recording must be byte-identical.
// Phase records carry wall-clock durations that legitimately vary
// run-to-run, so they are compared structurally (the per-analysis phase
// name sequence must match exactly) while every other record is compared
// as serialized JSONL bytes with the emission timestamp zeroed. Run
// under -race in CI, this doubles as the data-race proof for every new
// parallel pass.
func TestParallelAnalysisCorpusEquivalent(t *testing.T) {
	for trial, c := range workload.Corpus(60, 1) {
		w, model, seed := c.Workload, c.Model, c.Seed
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := trace.FromExecution(r.Exec)

		type snapshot struct {
			a      *core.Analysis
			text   string
			flight string
			phases []string
		}
		run := func(workers int) snapshot {
			fr := export.NewRecorder()
			a, err := core.Analyze(tr, core.Options{Workers: workers, Flight: fr})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			var text bytes.Buffer
			if err := report.RenderAnalysis(&text, a); err != nil {
				t.Fatal(err)
			}
			var phases []string
			var structural []export.Record
			for _, rec := range fr.Records() {
				if rec.Kind == export.KindPhase {
					phases = append(phases, rec.Phase.Name)
					continue
				}
				rec.TS = 0
				structural = append(structural, rec)
			}
			var flight bytes.Buffer
			if err := export.WriteJSONL(&flight, structural); err != nil {
				t.Fatal(err)
			}
			return snapshot{a: a, text: text.String(), flight: flight.String(), phases: phases}
		}

		ref := run(1)
		for _, workers := range []int{2, 3, 8, 16} {
			got := run(workers)
			if !reflect.DeepEqual(got.a.Races, ref.a.Races) ||
				!reflect.DeepEqual(got.a.DataRaces, ref.a.DataRaces) ||
				got.a.SyncRaces != ref.a.SyncRaces ||
				!reflect.DeepEqual(got.a.AugSCC.Comp, ref.a.AugSCC.Comp) ||
				!reflect.DeepEqual(got.a.Partitions, ref.a.Partitions) ||
				!reflect.DeepEqual(got.a.FirstPartitions, ref.a.FirstPartitions) {
				t.Fatalf("trial %d workers %d: analysis differs from workers=1", trial, workers)
			}
			if got.text != ref.text {
				t.Fatalf("trial %d workers %d: report text differs", trial, workers)
			}
			if got.flight != ref.flight {
				t.Fatalf("trial %d workers %d: flight records differ\n--- workers=%d\n%s--- workers=1\n%s",
					trial, workers, workers, got.flight, ref.flight)
			}
			if !reflect.DeepEqual(got.phases, ref.phases) {
				t.Fatalf("trial %d workers %d: phase sequence differs: %v vs %v",
					trial, workers, got.phases, ref.phases)
			}
		}
	}
}
