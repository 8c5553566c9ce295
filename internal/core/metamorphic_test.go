package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"weakrace/internal/bitset"
	"weakrace/internal/program"
	"weakrace/internal/trace"
)

// permuteTrace renames every location through perm, leaving structure
// untouched.
func permuteTrace(t *trace.Trace, perm []int) *trace.Trace {
	out := &trace.Trace{
		ProgramName:  t.ProgramName,
		Model:        t.Model,
		Seed:         t.Seed,
		NumCPUs:      t.NumCPUs,
		NumLocations: t.NumLocations,
		PerCPU:       make([][]*trace.Event, t.NumCPUs),
	}
	mapSet := func(s *bitset.Set) *bitset.Set {
		n := bitset.New(t.NumLocations)
		s.Range(func(v int) bool {
			n.Add(perm[v])
			return true
		})
		return n
	}
	mapPCs := func(m map[program.Addr]int) map[program.Addr]int {
		out := make(map[program.Addr]int, len(m))
		for k, v := range m {
			out[program.Addr(perm[k])] = v
		}
		return out
	}
	for c, evs := range t.PerCPU {
		for _, ev := range evs {
			ne := *ev
			if ev.Kind == trace.Comp {
				ne.Reads = mapSet(ev.Reads)
				ne.Writes = mapSet(ev.Writes)
				ne.ReadPC = mapPCs(ev.ReadPC)
				ne.WritePC = mapPCs(ev.WritePC)
			} else {
				ne.Loc = program.Addr(perm[ev.Loc])
			}
			out.PerCPU[c] = append(out.PerCPU[c], &ne)
		}
	}
	return out
}

// Metamorphic property: renaming locations permutes race location sets
// and changes nothing else — race pairs, partitions, and first partitions
// are identical.
func TestQuickLocationRenamingEquivariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		perm := rng.Perm(tr.NumLocations)
		a1, err := Analyze(tr, Options{})
		if err != nil {
			return false
		}
		a2, err := Analyze(permuteTrace(tr, perm), Options{})
		if err != nil {
			return false
		}
		if len(a1.Races) != len(a2.Races) || a1.SyncRaces != a2.SyncRaces ||
			len(a1.DataRaces) != len(a2.DataRaces) ||
			len(a1.Partitions) != len(a2.Partitions) ||
			len(a1.FirstPartitions) != len(a2.FirstPartitions) {
			return false
		}
		for i := range a1.Races {
			r1, r2 := a1.Races[i], a2.Races[i]
			if r1.A != r2.A || r1.B != r2.B || r1.Data != r2.Data {
				return false
			}
			mapped := bitset.New(0)
			r1.Locs.Range(func(v int) bool {
				mapped.Add(perm[v])
				return true
			})
			if !mapped.Equal(r2.Locs) {
				return false
			}
		}
		for i := range a1.Partitions {
			if a1.Partitions[i].First != a2.Partitions[i].First {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Metamorphic property: appending a processor that touches only fresh
// locations preserves every existing race and partition verdict.
func TestQuickIrrelevantThreadInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		a1, err := Analyze(tr, Options{})
		if err != nil {
			return false
		}

		// Extend with a processor working on brand-new locations.
		ext := &trace.Trace{
			ProgramName:  tr.ProgramName,
			Model:        tr.Model,
			Seed:         tr.Seed,
			NumCPUs:      tr.NumCPUs + 1,
			NumLocations: tr.NumLocations + 4,
			PerCPU:       append(append([][]*trace.Event{}, tr.PerCPU...), nil),
		}
		fresh := tr.NumLocations
		ext.PerCPU[tr.NumCPUs] = []*trace.Event{
			comp([]int{fresh, fresh + 1}, []int{fresh + 2, fresh + 3}),
		}
		a2, err := Analyze(ext, Options{})
		if err != nil {
			return false
		}

		if len(a1.Races) != len(a2.Races) || a1.SyncRaces != a2.SyncRaces ||
			len(a1.DataRaces) != len(a2.DataRaces) ||
			len(a1.FirstPartitions) != len(a2.FirstPartitions) {
			return false
		}
		// Event ids of the original processors are unchanged
		// (processor-major numbering appends the new processor last), so
		// races must match exactly.
		for i := range a1.Races {
			if a1.Races[i].A != a2.Races[i].A || a1.Races[i].B != a2.Races[i].B ||
				!a1.Races[i].Locs.Equal(a2.Races[i].Locs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
