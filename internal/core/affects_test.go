package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"weakrace/internal/memmodel"
	"weakrace/internal/trace"
)

// Two independent races: neither affects the other; both unaffected.
func TestAffectsIndependentRaces(t *testing.T) {
	tr := mkTrace(2,
		[]*trace.Event{comp(nil, []int{0})},
		[]*trace.Event{comp([]int{0}, nil)},
		[]*trace.Event{comp(nil, []int{1})},
		[]*trace.Event{comp([]int{1}, nil)},
	)
	a := analyze(t, tr, Options{})
	if len(a.Races) != 2 {
		t.Fatalf("races = %d", len(a.Races))
	}
	if a.Affects(0, 1) || a.Affects(1, 0) {
		t.Fatal("independent races affect each other")
	}
	if !a.Affects(0, 0) || !a.Affects(1, 1) {
		t.Fatal("races must trivially affect themselves")
	}
	for _, ri := range a.DataRaces {
		if !a.Unaffected(ri) {
			t.Fatalf("race %d should be unaffected", ri)
		}
	}
	if len(a.FirstPartitions) != 2 {
		t.Fatalf("first partitions = %d, want 2", len(a.FirstPartitions))
	}
}

// A race chain: stage 0's race affects stage 1's race but not conversely.
func TestAffectsChain(t *testing.T) {
	// P1: comp{W0}, rel(2), comp{W1}; P2: comp{R0}, rel(3), comp{R1}.
	p1 := []*trace.Event{
		comp(nil, []int{0}),
		syncEv(memmodel.RoleRelease, 2, 0),
		comp(nil, []int{1}),
	}
	p2 := []*trace.Event{
		comp([]int{0}, nil),
		syncEv(memmodel.RoleRelease, 3, 0),
		comp([]int{1}, nil),
	}
	a := analyze(t, mkTrace(4, p1, p2), Options{})
	if len(a.DataRaces) != 2 {
		t.Fatalf("data races = %d", len(a.DataRaces))
	}
	// Identify which race is on location 0.
	r0, r1 := 0, 1
	if !a.Races[0].Locs.Contains(0) {
		r0, r1 = 1, 0
	}
	if !a.Affects(r0, r1) {
		t.Fatal("stage-0 race should affect stage-1 race")
	}
	if a.Affects(r1, r0) {
		t.Fatal("stage-1 race should not affect stage-0 race")
	}
	if !a.Unaffected(r0) || a.Unaffected(r1) {
		t.Fatal("unaffected classification wrong")
	}
	if got := a.AffectedBy(r1); len(got) != 1 || got[0] != r0 {
		t.Fatalf("AffectedBy(stage1) = %v", got)
	}
	if a.RaceOfPartition(r0) == a.RaceOfPartition(r1) {
		t.Fatal("chain races must be in different partitions")
	}
}

// Property: a data race is unaffected iff its partition is first — the
// paper's definition of the reportable set, cross-checked against the
// SCC-based computation on random traces.
func TestQuickUnaffectedIffFirstPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		a, err := Analyze(tr, Options{})
		if err != nil {
			return false
		}
		for _, ri := range a.DataRaces {
			pi := a.RaceOfPartition(ri)
			if pi < 0 {
				return false
			}
			if a.Unaffected(ri) != a.Partitions[pi].First {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRaceOfPartitionSyncRace(t *testing.T) {
	tr := mkTrace(1,
		[]*trace.Event{syncEv(memmodel.RoleRelease, 0, 0)},
		[]*trace.Event{syncEv(memmodel.RoleSyncOther, 0, 1)},
	)
	a := analyze(t, tr, Options{})
	// The sync race is counted, not listed: Races holds data races only,
	// so no race index can name it and no partition contains it.
	if a.NumRaces() != 1 || a.SyncRaces != 1 || len(a.Races) != 0 {
		t.Fatalf("races = %d (sync %d, listed %d), want 1 sync race, none listed",
			a.NumRaces(), a.SyncRaces, len(a.Races))
	}
	if len(a.Partitions) != 0 {
		t.Fatalf("sync race formed %d partitions", len(a.Partitions))
	}
}
