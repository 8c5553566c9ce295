package core_test

import (
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestParallelScalingSmoke is the CI scaling gate: on a segments-1024
// trace (~65k events), the FULL analysis — validation, timestamping,
// hb1 build, partition ordering, and the bucket-sharded sweep — at
// Workers=4 must beat Workers=1 by at least 2.2x
// wall clock, and both runs must produce identical analyses.
// Wall-clock assertions are meaningless on loaded or single-core
// machines, so the test only runs when WEAKRACE_SCALING_SMOKE=1 is set
// (CI's perf-smoke job) and at least 4 CPUs are available; the
// correctness half of the claim is pinned unconditionally by
// TestParallelAnalysisCorpusEquivalent.
func TestParallelScalingSmoke(t *testing.T) {
	if os.Getenv("WEAKRACE_SCALING_SMOKE") != "1" {
		t.Skip("set WEAKRACE_SCALING_SMOKE=1 to run the wall-clock scaling gate")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the 2.2x gate, have %d", runtime.NumCPU())
	}

	w := workload.Random(workload.RandomParams{
		Seed: 5, CPUs: 4, Segments: 1024, UnlockedFraction: 0.3,
	})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.FromExecution(r.Exec)

	// Best-of-N wall clock per worker count: the minimum over several
	// runs filters scheduler noise without needing a long benchmark.
	const rounds = 7
	run := func(workers int) (*core.Analysis, time.Duration) {
		var a *core.Analysis
		best := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			got, err := core.Analyze(tr, core.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			a = got
		}
		return a, best
	}

	serial, serialT := run(1)
	parallel, parallelT := run(4)

	if !reflect.DeepEqual(parallel.Races, serial.Races) || parallel.SyncRaces != serial.SyncRaces ||
		!reflect.DeepEqual(parallel.DataRaces, serial.DataRaces) ||
		!reflect.DeepEqual(parallel.Partitions, serial.Partitions) ||
		!reflect.DeepEqual(parallel.FirstPartitions, serial.FirstPartitions) {
		t.Fatal("Workers=4 analysis differs from Workers=1")
	}

	speedup := float64(serialT) / float64(parallelT)
	t.Logf("segments-1024 (%d events): Workers=1 %v, Workers=4 %v, speedup %.2fx",
		serial.NumEvents, serialT, parallelT, speedup)
	if speedup < 2.2 {
		t.Fatalf("Workers=4 speedup %.2fx < 2.2x (serial %v, parallel %v)",
			speedup, serialT, parallelT)
	}
}
