// Package core implements the paper's contribution: post-mortem dynamic
// data race detection from an execution trace, valid on weak memory
// systems that satisfy Condition 3.4.
//
// Given a trace (per-processor event streams with synchronization pairing
// and READ/WRITE access sets — internal/trace), the detector:
//
//  1. builds the happens-before-1 graph: one node per event, edges for
//     program order (po) and paired release→acquire synchronization order
//     (so1); hb1 = (po ∪ so1)+ (Definitions 2.2–2.3);
//  2. finds the higher-level races: conflicting events not ordered by hb1
//     (Definition 2.4 lifted to events, §4.1) — remembering that hb1 may
//     contain cycles in a weak execution, so reachability runs on the SCC
//     condensation;
//  3. builds the augmented graph G′ by adding a doubly-directed edge
//     between the two events of every race, so that a path A ⇝ C in G′
//     captures "race 〈A,B〉 affects race 〈C,D〉" (Definition 3.3, §4.2);
//  4. partitions the data races by the strongly connected components of G′
//     and orders partitions by reachability (Definition 4.1);
//  5. reports the FIRST partitions: those not preceded by any other
//     partition containing a data race. By Theorem 4.1 there are no first
//     partitions iff the execution was race-free (hence sequentially
//     consistent, by Condition 3.4(1)); by Theorem 4.2 every first
//     partition contains at least one race that also occurs in a
//     sequentially consistent execution of the program.
package core

import (
	"fmt"
	"sort"
	"sync"

	"weakrace/internal/bitset"
	"weakrace/internal/graph"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
)

// EventID is a dense global index over all events of a trace
// (processor-major: all of P1's events, then P2's, ...).
type EventID int32

// Options configures an analysis.
type Options struct {
	// Pairing selects which synchronization writes count as releases when
	// constructing so1. The default, ConservativePairing, is the paper's
	// classification (a Test&Set's write never pairs). LiberalPairing is
	// sound on WO/DRF0-style hardware and yields fewer races.
	Pairing memmodel.PairingPolicy
	// SkipValidate skips trace validation (for traces already validated,
	// e.g. straight from the decoder, on hot benchmark paths).
	SkipValidate bool
	// Workers bounds the parallelism of the two parallel passes inside
	// one analysis: trace validation's stream checks and the (location,
	// segment-pair)-sharded race sweep scan. 0 uses GOMAXPROCS; 1 forces
	// the sequential paths. The Analysis is byte-identical for every
	// worker count: validation workers check disjoint streams, and scan
	// workers produce commutative partial results (data-race records,
	// sync-race counts, minimal-partner proposals) that are sorted,
	// summed, or folded by a minimum.
	Workers int
	// Arena, when non-nil, supplies reusable per-Analyze scratch buffers
	// (sweep records, SCC stacks, race-partner lists). A campaign hands one
	// arena per in-flight seed down so repeated analyses stop re-allocating
	// the same megabyte-scale buffers. An Arena must not be shared by
	// concurrent Analyze calls.
	Arena *Arena
	// Flight, when non-nil, attaches a flight recorder: Analyze records
	// the trace's events, hb1 edges tagged by origin (po/so1), the G′
	// race-partner edges, the detection phases as a timeline, and the
	// races and partitions found (see internal/telemetry/export). Nil —
	// the default — records nothing and costs one pointer check per
	// phase; the gate mirrors telemetry's atomic Enabled discipline.
	Flight *export.Recorder
}

// Arena holds the per-Analyze scratch buffers that are NOT retained by
// the returned Analysis: the sweep's record and partner buffers, the
// implicit-G′ partner lists, and the graph layer's Tarjan and
// condensation scratch. Zero value is ready to use; see Options.Arena.
type Arena struct {
	cpuOf []int32 // cpuOf[event] — filled per analysis
	posOf []int32 // posOf[event]: index within its CPU's stream
	degOf []int32 // buildHB's out-degree counting buffer
	// Implicit G′: per-node race-partner lists (min partner per CPU),
	// carved from augSlab at the node offsets augOff.
	extras  [][]int32
	augOff  []int32
	augSlab []int32
	// shards holds one sub-arena per sweep worker: each worker owns its
	// shard exclusively for the duration of the scan, so appends never
	// contend, while the shard list itself lives in the arena and keeps
	// the campaign-level sync.Pool reuse intact (shards[0] doubles as the
	// sequential path's buffer). Grown to the high-water worker count and
	// reused.
	shards    []sweepShard
	segs      []locSeg      // prep pass: per-location CPU segments, read-only during the scan
	segOff    []int32       // sorted-location offsets into segs (len(locs)+1)
	idx       []accessIndex // prep pass: per-access skip pointers and prefix counts
	idxOff    []int32       // sorted-location offsets into idx (len(locs)+1)
	units     []sweepUnit   // (location, segment-pair) buckets the scan workers pull
	recsMerge []pairRec     // parallel merge's concatenation buffer
	// locSlot interns locations into stable accLists slots, so repeated
	// analyses through one arena reuse the per-location access buffers
	// instead of rebuilding a map of freshly grown slices every time.
	locSlot  map[int]int32
	accLists [][]access
	slotLoc  []int32       // slot → location value (inverse of locSlot)
	canon    []*bitset.Set // slot → current analysis's canonical {loc} set (nil if unused)
	locsBuf  []int         // locations touched by the current analysis
	scratch  graph.Scratch
}

// NewArena returns an empty arena. Buffers grow to the working-set size
// of the analyses run through it and are then reused.
func NewArena() *Arena { return &Arena{} }

// arenaPool backs Analyze calls that did not supply an Options.Arena, so
// every caller gets scratch reuse across analyses; an explicit arena
// still wins (deterministic per-worker reuse, e.g. one per in-flight
// campaign seed).
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// Race is a higher-level race between two events (§4.1): A and B access a
// common location that at least one writes, and no hb1 path connects them.
type Race struct {
	// A and B are the racing events, A < B.
	A, B EventID
	// Locs is the set of locations on which A and B conflict.
	Locs *bitset.Set
	// Data reports whether this is a data race: at least one side is a
	// computation event (all of whose accesses are data operations). A
	// race between two synchronization events is a synchronization race
	// and is never reported, but it still contributes edges to G′. Every
	// entry of Analysis.Races is a data race; ForEachSyncRace yields the
	// synchronization races.
	Data bool
}

// Partition is a set of data races whose events share one strongly
// connected component of the augmented graph G′ (§4.2).
type Partition struct {
	// Component is the SCC id in the augmented graph.
	Component int
	// Races indexes Analysis.Races, listing this partition's data races.
	Races []int
	// Events lists the distinct events involved, sorted.
	Events []EventID
	// First reports whether no other partition containing a data race
	// precedes this one in the partial order P (Definition 4.1): the
	// partition is one the detector reports to the programmer.
	First bool
}

// Analysis is the complete result of a post-mortem detection run.
type Analysis struct {
	// Trace is the input trace.
	Trace *trace.Trace
	// Options echoes the options used.
	Options Options

	// NumEvents is the number of events (hb1 graph nodes).
	NumEvents int

	// HB is the happens-before-1 graph (po ∪ so1 edges).
	HB *graph.Digraph
	// HBTime is the hb1 vector-clock timestamp layer: one topological
	// pass assigns every event's SCC a forward clock and a backward
	// frontier, making ordering queries O(1) epoch compares and giving
	// the race sweep and the provenance certificates their per-CPU
	// interval boundaries directly. HBReaches/HBOrdered/HBWindow wrap it
	// in event ids.
	HBTime *graph.Timestamps
	// AugSCC is the component structure of G′ — the partitions of §4.2 —
	// computed by Tarjan over hb1 plus the race-partner lists, without
	// materializing G′ (see buildImplicitAug).
	AugSCC *graph.SCC

	// Races lists the data races, sorted by (A, B). Synchronization races
	// are not listed: SyncRaces counts them and ForEachSyncRace re-derives
	// them on demand. NumRaces returns the total.
	Races []Race
	// DataRaces indexes Races, listing the data races: since Races holds
	// only data races, it is the identity index 0..len(Races)-1.
	DataRaces []int
	// SyncRaces counts the synchronization races: conflicting,
	// hb1-unordered pairs of synchronization events.
	SyncRaces int64
	// Partitions lists the partitions containing at least one data race,
	// in a deterministic order (by smallest event id).
	Partitions []Partition
	// FirstPartitions indexes Partitions, listing the first partitions —
	// the detector's report.
	FirstPartitions []int

	base []int // base[c] = EventID of processor c's first event

	augCond         *graph.CondReach // G′ condensation reachability: partition order and affects
	augEdges        int64            // race-partner entries of G′
	candidatePairs  int64            // conflicting pairs (ordered or not) of the scanned segment pairs
	raceWorkers     int              // worker count the race search actually used
	sweepBuckets    int64            // (location, segment-pair) units the scan was sharded into
	vcWindowQueries int64            // sweep boundary lookups answered by HBTime
	// pairShift is the bit width of this trace's event ids: packed pair
	// keys are lo<<pairShift | hi. Packing at the id width keeps keys
	// within 64 bits for any trace with fewer than 2³² events, and
	// preserves the (lo, hi) lexicographic order the coalesce and the
	// report depend on.
	pairShift uint
}

// ID returns the EventID for an event reference.
func (a *Analysis) ID(ref trace.EventRef) EventID {
	return EventID(a.base[ref.CPU] + ref.Index)
}

// Ref returns the event reference for an EventID.
func (a *Analysis) Ref(id EventID) trace.EventRef {
	c := sort.Search(len(a.base), func(i int) bool { return a.base[i] > int(id) }) - 1
	return trace.EventRef{CPU: c, Index: int(id) - a.base[c]}
}

// Event returns the trace event with the given id.
func (a *Analysis) Event(id EventID) *trace.Event {
	return a.Trace.Event(a.Ref(id))
}

// NumRaces returns the number of races, data and synchronization:
// len(Races) + SyncRaces.
func (a *Analysis) NumRaces() int64 { return int64(len(a.Races)) + a.SyncRaces }

// RaceFree reports whether the execution exhibited no data races. On
// hardware satisfying Condition 3.4(1) this certifies that the execution
// was sequentially consistent.
func (a *Analysis) RaceFree() bool { return len(a.DataRaces) == 0 }

// HBReaches reports u ⇝ v in hb1 (reflexively: HBReaches(u, u) is true),
// one epoch compare on the vector-clock timestamps.
func (a *Analysis) HBReaches(u, v EventID) bool {
	return a.HBTime.Reaches(int(u), int(v))
}

// HBOrdered reports whether u and v are hb1-ordered either way — the
// negation of the paper's race condition "not ordered by hb1".
func (a *Analysis) HBOrdered(u, v EventID) bool {
	return a.HBReaches(u, v) || a.HBReaches(v, u)
}

// HBWindow brackets event x against processor cpu's stream: lastPred is
// the index of the last event of that stream that happens-before-1 x
// (-1 when none), firstSucc the index of the first event x
// happens-before-1 (the stream length when none). Program order makes
// the reaching events a prefix and the reached events a suffix, so
// events strictly inside (lastPred, firstSucc) are exactly the ones
// unordered with x — the absence certificate provenance emits. Both
// bounds are two slab reads off x's clock.
func (a *Analysis) HBWindow(x EventID, cpu int) (lastPred, firstSucc int) {
	predCount, succPos := a.HBTime.Window(int(x), cpu)
	return int(predCount) - 1, int(succPos)
}

// Analyze runs the full post-mortem detection pipeline on a trace.
func Analyze(t *trace.Trace, opts Options) (*Analysis, error) {
	reg := telemetry.Default()
	fl := newFlight(opts.Flight)
	defer startPhase(reg, fl, "detect.analyze")()
	if !opts.SkipValidate {
		// Validation shares the analysis's worker budget
		// (ValidateParallel resolves 0 to GOMAXPROCS the same way
		// resolveWorkers does) and reports the identical error for
		// every worker count.
		done := startPhase(reg, fl, "detect.validate")
		err := t.ValidateParallel(opts.Workers)
		done()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	a := &Analysis{Trace: t, Options: opts}
	if a.Options.Arena == nil {
		ar := arenaPool.Get().(*Arena)
		a.Options.Arena = ar
		defer func() {
			a.Options.Arena = opts.Arena // don't leak the pooled arena to the caller
			arenaPool.Put(ar)
		}()
	}

	// Dense event numbering, processor-major.
	a.base = make([]int, t.NumCPUs)
	n := 0
	for c, evs := range t.PerCPU {
		a.base[c] = n
		n += len(evs)
	}
	a.NumEvents = n

	a.fillStreamIndex()

	done := startPhase(reg, fl, "detect.build_hb")
	a.buildHB(reg)
	done()
	// One serial pass over hb1's condensation timestamps it —
	// O(events × CPUs) total — and the sweep's interval boundaries fall
	// out of the clocks.
	done = startPhase(reg, fl, "detect.hb_reach")
	ar := a.Options.Arena
	a.HBTime = graph.NewTimestamps(a.HB, ar.cpuOf[:a.NumEvents], ar.posOf[:a.NumEvents],
		t.NumCPUs, &ar.scratch)
	done()
	done = startPhase(reg, fl, "detect.find_races")
	a.findRaces(reg, fl)
	done()
	done = startPhase(reg, fl, "detect.augment")
	a.buildImplicitAug()
	done()
	done = startPhase(reg, fl, "detect.partition")
	a.partition(reg, fl)
	done()
	a.flushTelemetry(reg)
	if fl != nil {
		fl.record(a)
	}
	return a, nil
}

// fillStreamIndex fills the arena's per-event stream tables: cpuOf maps
// an event to its processor, posOf to its index within that processor's
// stream. The timestamp layer consumes them as clock coordinates and
// buildImplicitAug reuses cpuOf for partner-CPU dedup.
func (a *Analysis) fillStreamIndex() {
	ar := a.Options.Arena
	n := a.NumEvents
	if cap(ar.cpuOf) < n {
		ar.cpuOf = make([]int32, n)
	}
	if cap(ar.posOf) < n {
		ar.posOf = make([]int32, n)
	}
	cpuOf, posOf := ar.cpuOf[:n], ar.posOf[:n]
	for c, evs := range a.Trace.PerCPU {
		base := a.base[c]
		for i := range evs {
			cpuOf[base+i] = int32(c)
			posOf[base+i] = int32(i)
		}
	}
}

// flushTelemetry batches the analysis's structural counters into the
// registry — the event/edge/race/SCC scaling numbers every perf PR
// reports against.
func (a *Analysis) flushTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.Counter("detect.analyses").Inc()
	reg.Counter("detect.events").Add(int64(a.NumEvents))
	reg.Counter("detect.hb_edges").Add(int64(a.HB.M()))
	// detect.aug_edges counts the augmentation work actually represented:
	// per-node race-partner entries (at most racy-nodes × (CPUs−1), since
	// partners collapse to the po-minimal event per CPU).
	reg.Counter("detect.aug_edges").Add(a.augEdges)
	reg.Counter("detect.races").Add(a.NumRaces())
	reg.Counter("detect.data_races").Add(int64(len(a.DataRaces)))
	reg.Counter("detect.sync_races").Add(a.SyncRaces)
	reg.Counter("detect.partitions").Add(int64(len(a.Partitions)))
	reg.Counter("detect.first_partitions").Add(int64(len(a.FirstPartitions)))
	reg.Counter("detect.race_candidates").Add(a.candidatePairs)
	reg.Gauge("detect.find_races.workers").SetMax(int64(a.raceWorkers))
	// detect.sweep.buckets counts the (location, segment-pair) units the
	// scan was sharded into; the arena gauges are per-shard high-water
	// marks — how much record slab each worker's sub-arena has grown to
	// across the analyses run through it.
	reg.Counter("detect.sweep.buckets").Add(a.sweepBuckets)
	if ar := a.Options.Arena; ar != nil {
		reg.Gauge("detect.arena.shards").SetMax(int64(len(ar.shards)))
		maxRecs := 0
		for i := range ar.shards {
			if c := cap(ar.shards[i].recs); c > maxRecs {
				maxRecs = c
			}
		}
		reg.Gauge("detect.arena.shard_recs_highwater").SetMax(int64(maxRecs))
	}
	// detect.vc_* is the timestamp layer's footprint: analyses that used
	// it, its component/clock sizes, and the sweep boundary lookups it
	// answered. detect.vc_hb_fastpath_hits (the G′ queries the hb1 clock
	// settles before any condensation DFS) is incremented live at the
	// query site instead: Definition-3.3 queries arrive through the
	// Affects API after the analysis — and its flush — have finished.
	reg.Counter("detect.vc_builds").Inc()
	reg.Counter("detect.vc_components").Add(int64(a.HBTime.SCC().NumComponents()))
	reg.Gauge("detect.vc_width").SetMax(int64(a.HBTime.Width()))
	reg.Counter("detect.vc_window_queries").Add(a.vcWindowQueries)
	reg.Counter("detect.scc.components").Add(int64(a.AugSCC.NumComponents()))
	// detect.scc.max_size is the largest SCC of the AUGMENTED graph G′
	// per analysis — the partition-structure view. The graph layer's
	// graph.scc.max_size gauge instead tracks the largest SCC across
	// every SCC computation (hb1 and augmented).
	// Both reuse the size Tarjan tracked while closing components;
	// nothing rescans Members.
	reg.Gauge("detect.scc.max_size").SetMax(int64(a.AugSCC.MaxSize()))
}

// pairs reports whether an event is an acquire whose pairing the policy
// admits — the events that contribute so1 edges to hb1.
func (a *Analysis) pairs(ev *trace.Event) bool {
	return ev.Kind == trace.Sync && ev.Role == memmodel.RoleAcquire &&
		ev.Observed.Valid() && a.Options.Pairing.CanPair(ev.ObservedRole)
}

// buildHB constructs the happens-before-1 graph: po edges between
// consecutive events of each processor, so1 edges from each paired release
// to its acquire (Definition 2.2), subject to the pairing policy. A
// counting pass sizes every adjacency list first, so edge insertion fills
// one slab — two allocations per analysis instead of one per event.
func (a *Analysis) buildHB(reg *telemetry.Registry) {
	ar := a.Options.Arena
	n := a.NumEvents
	if cap(ar.degOf) < n {
		ar.degOf = make([]int32, n)
	}
	deg := ar.degOf[:n]
	clear(deg)
	sp := reg.StartSpan("graph.build.count")
	for c, evs := range a.Trace.PerCPU {
		for i := range evs {
			if i+1 < len(evs) {
				deg[a.base[c]+i]++
			}
			if a.pairs(evs[i]) {
				deg[a.ID(evs[i].Observed)]++
			}
		}
	}
	g := graph.NewWithDegrees(deg)
	sp.End()
	sp = reg.StartSpan("graph.build.fill")
	for c, evs := range a.Trace.PerCPU {
		for i := range evs {
			if i+1 < len(evs) {
				g.AddEdge(a.base[c]+i, a.base[c]+i+1)
			}
			if a.pairs(evs[i]) {
				g.AddEdge(int(a.ID(evs[i].Observed)), a.base[c]+i)
			}
		}
	}
	sp.End()
	a.HB = g
}

// vcFastpathHit counts a G′ reachability query settled by the hb1 clock
// pre-check. Incremented live (not at flushTelemetry) because the
// Definition-3.3 queries arrive through the Affects API after Analyze
// has already flushed.
func vcFastpathHit() {
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("detect.vc_hb_fastpath_hits").Inc()
	}
}

// partition groups the data races by the SCCs of G′ and computes the first
// partitions under the partial order P of Definition 4.1: a partition is
// first iff no OTHER data-race partition reaches it. Each query is a
// condensation-reachability lookup whose descendant row CondReach builds
// by one memoized DFS on first use.
func (a *Analysis) partition(reg *telemetry.Registry, fl *flight) {
	scc := a.AugSCC
	byComp := map[int]*Partition{}
	for _, ri := range a.DataRaces {
		r := a.Races[ri]
		// The doubly-directed race edge puts A and B on a common cycle, so
		// both ends are always in the same component.
		comp := scc.Comp[int(r.A)]
		p := byComp[comp]
		if p == nil {
			p = &Partition{Component: comp}
			byComp[comp] = p
		}
		p.Races = append(p.Races, ri)
	}
	for _, p := range byComp {
		seen := map[EventID]bool{}
		for _, ri := range p.Races {
			for _, id := range []EventID{a.Races[ri].A, a.Races[ri].B} {
				if !seen[id] {
					seen[id] = true
					p.Events = append(p.Events, id)
				}
			}
		}
		sort.Slice(p.Events, func(i, j int) bool { return p.Events[i] < p.Events[j] })
	}

	parts := make([]*Partition, 0, len(byComp))
	for _, p := range byComp {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Events[0] < parts[j].Events[0] })

	done := startPhase(reg, fl, "detect.condreach.order")
	for i, p := range parts {
		p.First = true
		for j, q := range parts {
			if i != j && a.augCond.ComponentReaches(q.Component, p.Component) {
				p.First = false
				break
			}
		}
	}
	done()
	a.Partitions = make([]Partition, len(parts))
	for i, p := range parts {
		a.Partitions[i] = *p
		if p.First {
			a.FirstPartitions = append(a.FirstPartitions, i)
		}
	}
}

// PartitionPrecedes reports whether partition i precedes partition j in
// the order P: a path exists in G′ from an event of i to an event of j.
func (a *Analysis) PartitionPrecedes(i, j int) bool {
	return a.augCond.ComponentReaches(a.Partitions[i].Component, a.Partitions[j].Component)
}

// LowerLevelRace describes one lower-level (operation-granularity) race
// candidate underlying a higher-level race, reconstructed from the trace's
// program-counter provenance. It identifies operations statically, the way
// the paper identifies them (§2.1): by processor, program point, and
// location.
type LowerLevelRace struct {
	Loc  program.Addr
	X, Y sim.StaticOp
	// XWrites/YWrites report each side's access mode on Loc.
	XWrites, YWrites bool
}

// Canonical returns the race with sides ordered deterministically.
func (l LowerLevelRace) Canonical() LowerLevelRace {
	if l.X.CPU > l.Y.CPU || (l.X.CPU == l.Y.CPU && l.X.PC > l.Y.PC) {
		l.X, l.Y = l.Y, l.X
		l.XWrites, l.YWrites = l.YWrites, l.XWrites
	}
	return l
}

// String renders the lower-level race.
func (l LowerLevelRace) String() string {
	mode := func(w bool) string {
		if w {
			return "W"
		}
		return "R"
	}
	return fmt.Sprintf("⟨%s:%s, %s:%s⟩@%d",
		mode(l.XWrites), l.X, mode(l.YWrites), l.Y, l.Loc)
}

// LowerLevel expands a higher-level race into its lower-level candidates,
// one per conflicting (location, access-mode) combination.
func (a *Analysis) LowerLevel(r Race) []LowerLevelRace {
	var out []LowerLevelRace
	evA, evB := a.Event(r.A), a.Event(r.B)
	refA, refB := a.Ref(r.A), a.Ref(r.B)
	r.Locs.Range(func(loc int) bool {
		addr := program.Addr(loc)
		for _, xa := range sideAccesses(evA, refA.CPU, addr) {
			for _, ya := range sideAccesses(evB, refB.CPU, addr) {
				if !xa.writes && !ya.writes {
					continue
				}
				out = append(out, LowerLevelRace{
					Loc:     addr,
					X:       sim.StaticOp{CPU: refA.CPU, PC: xa.pc, Loc: addr},
					Y:       sim.StaticOp{CPU: refB.CPU, PC: ya.pc, Loc: addr},
					XWrites: xa.writes, YWrites: ya.writes,
				}.Canonical())
			}
		}
		return true
	})
	return out
}

type sideAccess struct {
	pc     int
	writes bool
}

// sideAccesses lists an event's accesses to loc with their PC provenance.
func sideAccesses(ev *trace.Event, cpu int, loc program.Addr) []sideAccess {
	var out []sideAccess
	switch ev.Kind {
	case trace.Comp:
		if ev.Writes.Contains(int(loc)) {
			out = append(out, sideAccess{pc: ev.WritePC[loc], writes: true})
		}
		if ev.Reads.Contains(int(loc)) {
			out = append(out, sideAccess{pc: ev.ReadPC[loc], writes: false})
		}
	case trace.Sync:
		if ev.Loc == loc {
			out = append(out, sideAccess{pc: ev.PC, writes: ev.IsWriteSync()})
		}
	}
	return out
}
