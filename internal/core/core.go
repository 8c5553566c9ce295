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
	"sync/atomic"

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
	// Workers bounds the parallelism of every parallel pass inside one
	// analysis: the timestamp layer's span fill and the (location, segment-
	// pair)-sharded race sweep scan. 0 uses GOMAXPROCS; 1 forces the
	// sequential paths. The Analysis is byte-identical for every worker
	// count: scan workers produce commutative partial results (data-race
	// records, sync-race counts, minimal-partner proposals) that are
	// sorted, summed, or folded by a minimum, and the fill writes disjoint
	// ranges of slabs whose contents do not depend on the schedule.
	Workers int
	// ExplicitClosure answers hb1 ordering queries with the lazy bitset
	// transitive closure (graph.NewReachabilityLazy, Analysis.HBReach) the
	// way PRs 2–3 did. The default (false) timestamps hb1 in one
	// topological pass instead (graph.Timestamps, Analysis.HBTime): every
	// ordering query becomes an O(1) per-CPU epoch compare and the race
	// sweep reads its interval boundaries straight from the clocks, with
	// no closure rows at all. The two paths produce byte-identical
	// analyses; the closure path is kept as the reference oracle for the
	// crosscheck harness and for callers that want HBReach for ad-hoc
	// component-level queries.
	ExplicitClosure bool
	// ExplicitAug materializes the augmented graph G′ the way §4.2 writes
	// it down: clone hb1, add a doubly-directed edge per race, build a
	// transitive closure over it (Analysis.Aug/AugReach). The default
	// (false) runs Tarjan over an implicit adjacency and answers partition
	// ordering with targeted condensation reachability — same Analysis,
	// none of the edge materialization. The explicit path is kept as the
	// reference implementation for the equivalence crosscheck and for
	// callers that want the closure for ad-hoc queries.
	ExplicitAug bool
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
	hbCnt     []int32       // parallel hb1 fill: per-event so1 rank counters
	hbLess    []int32       // parallel hb1 fill: per-event acquires-below-po counts
	digits    []int32       // radix sort's counting buffer
	recsTmp   []pairRec     // radix sort's ping-pong buffer
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
	// interval boundaries directly. Populated on the default path; nil
	// under Options.ExplicitClosure. Query hb1 ordering through
	// HBReaches/HBOrdered/HBWindow, which dispatch to whichever oracle
	// the options built.
	HBTime *graph.Timestamps
	// HBReach answers hb1 ordering queries with the closure oracle.
	// Populated only under Options.ExplicitClosure.
	HBReach *graph.Reachability
	// Aug is the augmented graph G′: HB plus a doubly-directed edge per
	// race. Populated only under Options.ExplicitAug; the default path
	// never materializes G′ (its SCCs are computed over an implicit
	// adjacency — see buildImplicitAug).
	Aug *graph.Digraph
	// AugReach answers affect-ordering queries on G′. Populated only
	// under Options.ExplicitAug.
	AugReach *graph.Reachability
	// AugSCC is the component structure of G′ — the partitions of §4.2.
	// Always populated (on the implicit path it comes from the overlay
	// Tarjan run; on the explicit path from AugReach). Component ids may
	// differ between the two paths (adjacency order steers Tarjan's
	// numbering) but the components themselves, and everything derived
	// from them, are identical.
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

	augCond         *graph.CondReach // implicit path's partition-order oracle
	augEdges        int64            // implicit partner entries, or Aug.M() when explicit
	candidatePairs  int64            // conflicting pairs (ordered or not) of the scanned segment pairs
	raceWorkers     int              // worker count the race search actually used
	sweepBuckets    int64            // (location, segment-pair) units the scan was sharded into
	vcWindowQueries int64            // sweep boundary lookups answered by HBTime
	// pairShift is the bit width of this trace's event ids: packed pair
	// keys are lo<<pairShift | hi, so they span only 2·⌈log₂ n⌉ bits and
	// the radix sort runs the fewest counting passes the ids allow.
	// Packing tightly (instead of a fixed <<32) preserves the (lo, hi)
	// lexicographic order the coalesce and the report depend on.
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
// dispatching to whichever ordering oracle the options built — the
// vector-clock timestamps by default, the explicit closure under
// Options.ExplicitClosure. The two oracles agree on every pair (the
// crosscheck harness pins this), so callers never need to know which ran.
func (a *Analysis) HBReaches(u, v EventID) bool {
	if a.HBTime != nil {
		return a.HBTime.Reaches(int(u), int(v))
	}
	return a.HBReach.Reaches(int(u), int(v))
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
// unordered with x — the absence certificate provenance emits. On the
// timestamp path both bounds are two slab reads; under ExplicitClosure
// they are recovered by binary search over the monotone closure
// predicates.
func (a *Analysis) HBWindow(x EventID, cpu int) (lastPred, firstSucc int) {
	if a.HBTime != nil {
		predCount, succPos := a.HBTime.Window(int(x), cpu)
		return int(predCount) - 1, int(succPos)
	}
	n := len(a.Trace.PerCPU[cpu])
	base := a.base[cpu]
	lastPred = sort.Search(n, func(j int) bool {
		return !a.HBReach.Reaches(base+j, int(x))
	}) - 1
	firstSucc = sort.Search(n, func(j int) bool {
		return a.HBReach.Reaches(int(x), base+j)
	})
	return lastPred, firstSucc
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
	a.buildHB()
	done()
	done = startPhase(reg, fl, "detect.hb_reach")
	if opts.ExplicitClosure {
		// Lazy closure oracle: the race search's pre-checks (component id,
		// topological level) answer most ordering queries without closure
		// rows, so sparse-race traces never materialize the full O(C²/64)
		// closure.
		a.HBReach = graph.NewReachabilityLazy(a.HB)
	} else {
		// Default path: one topological pass timestamps hb1 — O(events ×
		// CPUs) total, no rows ever, and the sweep's interval boundaries
		// fall out of the clocks for free. The span fill inside shares the
		// analysis's worker budget.
		ar := a.Options.Arena
		a.HBTime = graph.NewTimestamps(a.HB, ar.cpuOf[:a.NumEvents], ar.posOf[:a.NumEvents],
			t.NumCPUs, &ar.scratch, a.resolveWorkers())
	}
	done()
	done = startPhase(reg, fl, "detect.find_races")
	a.findRaces(reg, fl)
	done()
	done = startPhase(reg, fl, "detect.augment")
	if opts.ExplicitAug {
		a.buildAugmented()
		a.AugReach = graph.NewReachabilityLazy(a.Aug)
		a.AugSCC = a.AugReach.SCC()
		a.augEdges = int64(a.Aug.M())
	} else {
		a.buildImplicitAug()
	}
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
	// per-node race-partner entries on the implicit path (at most
	// racy-nodes × (CPUs−1), since partners collapse to the po-minimal
	// event per CPU), or G′'s materialized edge count under ExplicitAug.
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
	// answered (each replacing an amortized run of closure queries).
	// Absent entirely when the closure path ran instead — mirroring
	// graph.reach.*, which now only appears when a closure was actually
	// built. detect.vc_hb_fastpath_hits (the G′ queries the hb1 clock
	// settles before any condensation DFS) is incremented live at the
	// query site instead: Definition-3.3 queries arrive through the
	// Affects API after the analysis — and its flush — have finished.
	if a.HBTime != nil {
		reg.Counter("detect.vc_builds").Inc()
		reg.Counter("detect.vc_components").Add(int64(a.HBTime.SCC().NumComponents()))
		reg.Gauge("detect.vc_width").SetMax(int64(a.HBTime.Width()))
		reg.Counter("detect.vc_window_queries").Add(a.vcWindowQueries)
	}
	reg.Counter("detect.scc.components").Add(int64(a.AugSCC.NumComponents()))
	// detect.scc.max_size is the largest SCC of the AUGMENTED graph G′
	// per analysis — the partition-structure view. The graph layer's
	// graph.scc.max_size gauge instead tracks the largest SCC across
	// every SCC computation (hb1 and augmented, explicit or implicit).
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

// hbParallelCutoff is the event count below which hb1 construction
// stays on the calling goroutine; both paths build byte-identical
// graphs, so the cutoff is purely a scheduling decision.
const hbParallelCutoff = 1 << 13

// hbChunk is the number of source events per parallel counting unit.
const hbChunk = 4096

// buildHB constructs the happens-before-1 graph: po edges between
// consecutive events of each processor, so1 edges from each paired release
// to its acquire (Definition 2.2), subject to the pairing policy. A
// counting pass sizes every adjacency list first, so edge insertion fills
// one slab — two allocations per analysis instead of one per event.
//
// Above hbParallelCutoff the two passes fan out over the worker budget
// (see buildHBParallel); the resulting Digraph is byte-identical to the
// serial build for every worker count.
func (a *Analysis) buildHB() {
	reg := telemetry.Default()
	workers := a.resolveWorkers()
	if a.NumEvents < hbParallelCutoff {
		workers = 1
	}
	if reg.Enabled() {
		reg.Gauge("graph.build.workers").SetMax(int64(workers))
	}
	if workers <= 1 {
		a.buildHBSerial(reg)
	} else {
		a.buildHBParallel(reg, workers)
	}
}

// buildHBSerial is the sequential build: count degrees, carve the slab,
// append every edge in processor-major scan order.
func (a *Analysis) buildHBSerial(reg *telemetry.Registry) {
	ar := a.Options.Arena
	n := a.NumEvents
	if cap(ar.degOf) < n {
		ar.degOf = make([]int32, n)
	}
	deg := ar.degOf[:n]
	for i := range deg {
		deg[i] = 0
	}
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

// soRec is one so1 edge in flight during the parallel build: obs is the
// observed synchronization write (the edge's source), v the acquire
// that contributes the edge (its scan-order position).
type soRec struct{ obs, v int32 }

// buildHBParallel builds the same Digraph as buildHBSerial with the
// passes fanned out, reproducing the serial adjacency order exactly.
//
// The serial scan appends each node u's edges in ascending order of the
// CONTRIBUTING event's id: a po edge u→u+1 is appended while scanning u
// itself, an so1 edge u→v while scanning the acquire v. So adj[u] is
// {u's po successor} ∪ {observing acquires v}, merge-sorted by
// contributor id — a position every edge can compute locally:
//
//	so1 slot of (u, v) = rank of v among u's acquires (v-ascending)
//	                     + 1 if u has a po edge and u < v
//	po  slot of u      = number of u's acquires with v < u
//
// Three phases keep every write disjoint: source-chunk units collect
// so1 records bucketed by the observed event's stream; per-stream
// workers concatenate their buckets in unit order (= v-ascending),
// count degrees (po edges and record targets both live in the owned
// stream), and — after a serial slab carve — place every edge at its
// computed slot. No ordering ever depends on which worker ran first.
func (a *Analysis) buildHBParallel(reg *telemetry.Registry, workers int) {
	ar := a.Options.Arena
	t := a.Trace
	n := a.NumEvents
	if cap(ar.degOf) < n {
		ar.degOf = make([]int32, n)
	}
	deg := ar.degOf[:n]
	clear(deg)

	sp := reg.StartSpan("graph.build.count")
	// Phase 1: source chunks collect so1 records, bucketed by the
	// observed event's stream — the slab range the edge lands in.
	type hbUnit struct {
		c, lo, hi int
		recs      [][]soRec
	}
	var units []hbUnit
	for c, evs := range t.PerCPU {
		for lo := 0; lo < len(evs); lo += hbChunk {
			hi := min(lo+hbChunk, len(evs))
			units = append(units, hbUnit{c: c, lo: lo, hi: hi})
		}
	}
	runUnits(workers, len(units), func(k int) {
		u := &units[k]
		u.recs = make([][]soRec, t.NumCPUs)
		evs := t.PerCPU[u.c]
		base := a.base[u.c]
		for i := u.lo; i < u.hi; i++ {
			if ev := evs[i]; a.pairs(ev) {
				s := ev.Observed.CPU
				u.recs[s] = append(u.recs[s], soRec{obs: int32(a.ID(ev.Observed)), v: int32(base + i)})
			}
		}
	})

	// Phase 2: per-stream workers concatenate their buckets in unit
	// order — units are enumerated processor-major, so the result is
	// ascending in v — and count degrees. Both the po targets and the
	// record targets of stream s lie in s's slab range, so the deg
	// writes are disjoint across workers.
	recsBy := make([][]soRec, t.NumCPUs)
	runUnits(workers, t.NumCPUs, func(s int) {
		total := 0
		for k := range units {
			total += len(units[k].recs[s])
		}
		recs := make([]soRec, 0, total)
		for k := range units {
			recs = append(recs, units[k].recs[s]...)
		}
		recsBy[s] = recs
		base, evs := a.base[s], t.PerCPU[s]
		for i := 0; i+1 < len(evs); i++ {
			deg[base+i]++
		}
		for _, r := range recs {
			deg[r.obs]++
		}
	})
	g := graph.NewPlaced(deg)
	sp.End()

	sp = reg.StartSpan("graph.build.fill")
	// Phase 3: place each edge at the slot the serial builder would
	// have appended it to. One v-ascending pass over a stream's records
	// yields each record's rank (cnt) and each event's below-po acquire
	// count (less); the po edges then land at their final slots.
	if cap(ar.hbCnt) < n {
		ar.hbCnt = make([]int32, n)
		ar.hbLess = make([]int32, n)
	}
	runUnits(workers, t.NumCPUs, func(s int) {
		base, evs := a.base[s], t.PerCPU[s]
		cnt := ar.hbCnt[base : base+len(evs)]
		less := ar.hbLess[base : base+len(evs)]
		clear(cnt)
		clear(less)
		for _, r := range recsBy[s] {
			o := int(r.obs) - base
			slot := int(cnt[o])
			cnt[o]++
			if r.v < r.obs {
				less[o]++
			} else if o+1 < len(evs) {
				slot++ // the po edge's contributor (u itself) precedes this acquire
			}
			g.Place(int(r.obs), slot, int(r.v))
		}
		for i := 0; i+1 < len(evs); i++ {
			g.Place(base+i, int(less[i]), base+i+1)
		}
	})
	sp.End()
	a.HB = g
}

// runUnits fans k units out over a worker pool pulling an atomic
// cursor; fn must only write unit-owned state. With one worker (or one
// unit) everything runs on the calling goroutine.
func runUnits(workers, k int, fn func(int)) {
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		for i := 0; i < k; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// augCompReaches answers component-level G′ reachability through
// whichever oracle the options built: the explicit closure, or the
// implicit path's memoized condensation DFS.
func (a *Analysis) augCompReaches(c1, c2 int) bool {
	if a.AugReach != nil {
		return a.AugReach.ComponentReaches(c1, c2)
	}
	return a.augCond.ComponentReaches(c1, c2)
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

// augReaches answers event-level G′ reachability (Definition 3.3's
// affects paths). hb1 ⊆ G′, so when the timestamp layer is live its O(1)
// epoch compare settles positive hb1-ordered queries before the
// condensation oracle (or the explicit closure) is consulted; a negative
// answer proves nothing about G′ — race edges add paths hb1 lacks — and
// falls through.
func (a *Analysis) augReaches(u, v int) bool {
	if a.HBTime != nil && a.HBTime.Reaches(u, v) {
		vcFastpathHit()
		return true
	}
	if a.AugReach != nil {
		return a.AugReach.Reaches(u, v)
	}
	return a.augCond.Reaches(u, v)
}

// partition groups the data races by the SCCs of G′ and computes the first
// partitions under the partial order P of Definition 4.1.
//
// The ordering runs in two phases. detect.condreach.materialize
// pre-builds the condensation reachability rows of every partition
// component that can be a non-trivial query source (all but the
// minimum id — reverse-topological numbering answers the minimum's
// queries without a row), with CondReach's CAS-publishing worker pool.
// detect.condreach.order then evaluates the O(k²) "does any other
// partition reach p" loop with partitions fanned out over the worker
// budget: every query is a lock-free row load, each worker writes only
// its own partition's First flag, and the flags are pure functions of
// G′ — identical for every worker count and schedule.
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

	workers := a.resolveWorkers()
	if reg.Enabled() && len(parts) > 0 {
		reg.Gauge("detect.condreach.workers").SetMax(int64(workers))
	}
	// Both phases fire regardless of worker count or partition count, so
	// flight recordings stay byte-identical across worker counts.
	done := startPhase(reg, fl, "detect.condreach.materialize")
	if a.augCond != nil && len(parts) > 1 {
		minComp := parts[0].Component
		for _, p := range parts[1:] {
			if p.Component < minComp {
				minComp = p.Component
			}
		}
		comps := make([]int, 0, len(parts)-1)
		for _, p := range parts {
			if p.Component != minComp {
				comps = append(comps, p.Component)
			}
		}
		a.augCond.MaterializeRows(comps, workers)
	}
	done()

	// A partition is first iff no OTHER data-race partition reaches it.
	done = startPhase(reg, fl, "detect.condreach.order")
	runUnits(workers, len(parts), func(i int) {
		p := parts[i]
		p.First = true
		for j, q := range parts {
			if i == j {
				continue
			}
			if a.augCompReaches(q.Component, p.Component) {
				p.First = false
				break
			}
		}
	})
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
	return a.augCompReaches(a.Partitions[i].Component, a.Partitions[j].Component)
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
