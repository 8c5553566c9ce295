package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/trace"
)

// TestSyncRaceFloodBoundedMemory decodes a hostile trace — two CPUs each
// issuing 20,000 unpaired synchronization operations on one lock word,
// so every cross-CPU pair is hb1-unordered — and analyzes it. The trace
// holds 375,000,000 synchronization races; materialized as 16-byte sweep
// records they would need about 6 GB. The sweep must count them
// arithmetically, exactly, inside a fixed memory budget: untrusted input
// cannot exhaust the analyzer by racing quadratically.
func TestSyncRaceFloodBoundedMemory(t *testing.T) {
	const perCPU = 20000
	const lock = program.Addr(0)
	tr := &trace.Trace{ProgramName: "sync-flood", Model: memmodel.WO, NumCPUs: 2, NumLocations: 1}
	var reads [2]int64
	for c := 0; c < 2; c++ {
		evs := make([]*trace.Event, perCPU)
		for i := range evs {
			// One operation in four is an acquire that observed no
			// synchronization write (it pairs with nothing); the rest are
			// releases and Test&Set writes.
			role := [...]memmodel.Role{memmodel.RoleAcquire, memmodel.RoleRelease, memmodel.RoleSyncOther, memmodel.RoleRelease}[i%4]
			if role == memmodel.RoleAcquire {
				reads[c]++
			}
			evs[i] = &trace.Event{
				Kind: trace.Sync, Role: role, Loc: lock, SyncSeq: 2*i + c,
				Observed: trace.NoEvent,
			}
		}
		tr.PerCPU = append(tr.PerCPU, evs)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Every cross-CPU pair conflicts except read–read pairs.
	want := int64(perCPU)*perCPU - reads[0]*reads[1]

	for _, workers := range []int{1, 2} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := core.Analyze(decoded, core.Options{Workers: workers, Arena: core.NewArena()})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if a.SyncRaces != want || a.NumRaces() != want || len(a.Races) != 0 {
			t.Errorf("Workers=%d: SyncRaces %d, NumRaces %d, data races %d; want %d, %d, 0",
				workers, a.SyncRaces, a.NumRaces(), len(a.Races), want, want)
		}
		const budget = 64 << 20
		alloc := after.TotalAlloc - before.TotalAlloc
		if alloc > budget {
			t.Errorf("Workers=%d: analysis allocated %d MB, budget %d MB", workers, alloc>>20, budget>>20)
		}
		t.Logf("Workers=%d: %d sync races counted in %.1f MB", workers, a.SyncRaces, float64(alloc)/(1<<20))
	}
}
