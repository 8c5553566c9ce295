package crosscheck

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
)

// The implicit augmented-graph path (the default: overlay Tarjan over
// hb1 ⊕ race-partner lists, condensation-level reachability) and the
// explicit §4.2 path (materialize G′, full transitive closure) must
// produce identical Analysis output: same races, same partitions, same
// first partitions, same partition order, same affect relation. SCC
// component *ids* are the one legitimate difference — Tarjan's numbering
// follows adjacency order — so partitions are compared with Component
// masked and the order relation is compared through PartitionPrecedes.
func TestImplicitVsExplicitAugmentedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	racyTraces := 0
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(rng, trial%3 != 0)
		model := weakModel(rng)
		seed := rng.Int63n(1000)
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.FromExecution(r.Exec)
		imp, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exp, err := core.Analyze(tr, core.Options{ExplicitAug: true})
		if err != nil {
			t.Fatal(err)
		}
		if !imp.RaceFree() {
			racyTraces++
		}

		ctx := func() string {
			return w.Name + " seed " + model.String()
		}
		if !reflect.DeepEqual(imp.Races, exp.Races) {
			t.Fatalf("trial %d (%s, seed %d): race lists differ:\nimplicit: %+v\nexplicit: %+v",
				trial, ctx(), seed, imp.Races, exp.Races)
		}
		if !reflect.DeepEqual(imp.DataRaces, exp.DataRaces) || imp.SyncRaces != exp.SyncRaces {
			t.Fatalf("trial %d (%s, seed %d): data-race sets or sync-race counts differ", trial, ctx(), seed)
		}
		maskComp := func(ps []core.Partition) []core.Partition {
			out := make([]core.Partition, len(ps))
			for i, p := range ps {
				p.Component = 0
				out[i] = p
			}
			return out
		}
		if !reflect.DeepEqual(maskComp(imp.Partitions), maskComp(exp.Partitions)) {
			t.Fatalf("trial %d (%s, seed %d): partitions differ:\nimplicit: %+v\nexplicit: %+v",
				trial, ctx(), seed, imp.Partitions, exp.Partitions)
		}
		if !reflect.DeepEqual(imp.FirstPartitions, exp.FirstPartitions) {
			t.Fatalf("trial %d (%s, seed %d): first partitions differ: %v vs %v",
				trial, ctx(), seed, imp.FirstPartitions, exp.FirstPartitions)
		}
		for i := range imp.Partitions {
			for j := range imp.Partitions {
				if got, want := imp.PartitionPrecedes(i, j), exp.PartitionPrecedes(i, j); got != want {
					t.Fatalf("trial %d (%s, seed %d): PartitionPrecedes(%d,%d) = %v implicit, %v explicit",
						trial, ctx(), seed, i, j, got, want)
				}
			}
		}
		// The event-level affect relation (Definition 3.3) must agree too —
		// it reads the condensation oracle on the implicit path and the
		// full closure on the explicit one.
		for _, ri := range imp.DataRaces {
			for _, rj := range imp.DataRaces {
				if got, want := imp.Affects(ri, rj), exp.Affects(ri, rj); got != want {
					t.Fatalf("trial %d (%s, seed %d): Affects(%d,%d) = %v implicit, %v explicit",
						trial, ctx(), seed, ri, rj, got, want)
				}
			}
		}
		// And the rendered reports, the user-visible artifact, must be
		// byte-identical.
		var impOut, expOut bytes.Buffer
		if err := report.RenderAnalysis(&impOut, imp); err != nil {
			t.Fatal(err)
		}
		if err := report.RenderAnalysis(&expOut, exp); err != nil {
			t.Fatal(err)
		}
		if impOut.String() != expOut.String() {
			t.Fatalf("trial %d (%s, seed %d): rendered reports differ:\n--- implicit ---\n%s\n--- explicit ---\n%s",
				trial, ctx(), seed, impOut.String(), expOut.String())
		}
	}
	if racyTraces < 20 {
		t.Fatalf("only %d racy traces crosschecked; generator drifted", racyTraces)
	}
}
