package core

// The race sweep (§4.1) and the augmented graph G′ (§4.2). The sweep's
// work grows with what it reports — data races and G′'s minimal race
// partners — not with the race count: weak executions routinely hold
// hundreds of synchronization races per data race (contending spin loops
// race quadratically), and none of those ever forms a partition. They are
// counted arithmetically, folded into G′ through the per-CPU minimal
// partners, and re-derived on demand by ForEachSyncRace.

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"weakrace/internal/bitset"
	"weakrace/internal/graph"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
)

// access is one (event, location) access used during race detection.
type access struct {
	ev    EventID
	write bool
	sync  bool
}

// accessIndex holds what the prep pass derives for one access, at the
// access's index in its location's list.
type accessIndex struct {
	// next[k] is the index of the first access at or after this one in
	// its segment that belongs to skip class k (the segment end when there
	// is none): the pointers that let the scan step only onto accesses it
	// emits.
	next [numSkips]int32
	// syncs and syncWrites count the synchronization accesses and
	// synchronization writes before this one in its segment.
	syncs, syncWrites int32
}

// Skip classes of accessIndex.next.
const (
	skipWrite     = iota // any write
	skipComp             // any computation access
	skipCompWrite        // a computation write
	numSkips
)

// locSeg is one contiguous same-CPU run of a location's access list.
// Accesses are collected processor-major, so a location has at most one
// segment per CPU, po-ascending within.
type locSeg struct {
	start, end int32 // accs[start:end]
	writes     int32 // write accesses within
	syncs      int32 // synchronization accesses within
	syncWrites int32 // synchronization writes within
}

// syncsBefore returns the synchronization accesses and synchronization
// writes of s that precede index i (s.start ≤ i ≤ s.end).
func (s locSeg) syncsBefore(idx []accessIndex, i int32) (syncs, syncWrites int32) {
	if i == s.end {
		return s.syncs, s.syncWrites
	}
	return idx[i].syncs, idx[i].syncWrites
}

// sweepUnit is one bucket of sweep work: a (location, segment-pair)
// combination with conflict potential. Sharding by segment pair — CPU
// pair, since segments are per-CPU — instead of by whole location keeps
// a single hot location (a contended lock word) from serializing behind
// one worker. Units are enumerated in a fixed (location, si, ti) order;
// which worker runs a unit never matters because the merge sorts the
// flat records into a total order afterwards and every other output is
// commutative.
type sweepUnit struct {
	li     int32 // index into the sorted locations
	si, ti int32 // segment pair within the location, si < ti
}

// sweepShard is one worker's sub-arena, owned exclusively by its worker
// between fan-out and merge: the data-race records and minimal-partner
// candidates it appends, and the per-unit window buffer of the reverse
// pass.
type sweepShard struct {
	recs     []pairRec
	partners []partnerRec
	win      []int32
}

// pairRec is one (data-race pair, location) observation from the sweep —
// the flat intermediate the workers produce and the merge sorts and
// coalesces.
type pairRec struct {
	key  uint64 // packed (A, B)
	slot int32  // interned location slot
}

// partnerRec proposes v as u's race partner on v's CPU. buildImplicitAug
// keeps the smallest proposal per (u, CPU).
type partnerRec struct{ u, v EventID }

// push appends v to s, doubling the capacity when s is full. Plain append
// grows large slices by about 1.25x, so a buffer that starts empty
// allocates some five times its final size on the way there; a cold
// arena's sweep buffers grow from empty in every analysis.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(cap(s), 16))
	}
	return append(s, v)
}

// sweepThreshold is the access count below which the race search stays
// sequential: fanning out goroutines costs more than the sweep itself on
// small traces. The parallel and sequential paths produce identical
// output, so the cutoff is purely a scheduling decision.
const sweepThreshold = 2048

// resolveWorkers returns the analysis's worker budget: Options.Workers,
// with 0 meaning GOMAXPROCS. Individual passes may still run
// sequentially below their own size cutoffs.
func (a *Analysis) resolveWorkers() int {
	if w := a.Options.Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// findRaces detects the data races, counts the synchronization races,
// and proposes G′'s minimal race partners.
//
// The search is a sweep over CPU-bucketed accesses: accesses are
// collected processor-major, so each location's slice is made of
// contiguous same-CPU segments (one per processor, po-ascending within),
// and pairing a segment only against later segments skips same-processor
// pairs (always po-ordered) wholesale.
//
// Against one later segment T, an access x needs no per-pair ordering
// tests: program order makes ordering monotone along T, so the events of
// T that reach x form a PREFIX of T, the events x reaches form a SUFFIX,
// and the hb1-unordered partners of x are exactly the window [p, q)
// between them. Both boundaries are monotone non-decreasing as x
// advances through its own segment, so one two-pointer pass spends
// O(|S|+|T|) boundary work per segment pair. The boundaries come from
// HBTime.Window — two slab reads per x.
//
// From each window the scan takes three things, none of which visits a
// synchronization–synchronization pair:
//
//   - data records: the pairs with a computation access on at least one
//     side, reached through the per-segment skip pointers (next write,
//     next computation access, next computation write), so every step
//     lands on a record;
//   - the synchronization races, counted from the per-segment prefix
//     counts of synchronization accesses and writes — a synchronization
//     event touches one location, so on that location records are pairs;
//   - x's minimal race partner on T's CPU: the first conflicting access
//     of the window. A reverse pass over T, reading the stored windows,
//     proposes each y's minimal partner on S's CPU symmetrically.
//
// The unit of parallel work is a (location, segment-pair) bucket. Scan
// workers pull buckets off an atomic index and append into per-shard
// arenas they own; the data records are concatenated and sorted into a
// total order and coalesced into races; the counts are sums and the
// partner proposals are folded by a minimum. The Analysis is therefore
// byte-identical for every worker count and work-stealing schedule.
func (a *Analysis) findRaces(reg *telemetry.Registry, fl *flight) {
	// Keyed by location, sparse: traces legitimately declare large address
	// spaces while touching few locations, and the analyzer must not
	// allocate proportionally to the declared size (robustness against
	// decoded input). The arena interns each location into a stable slot
	// whose access buffer survives across analyses — a campaign's repeated
	// traces stop re-growing hundreds of per-location slices.
	ar := a.Options.Arena
	donePrep := startPhase(reg, fl, "detect.sweep.prep")
	if ar.locSlot == nil {
		ar.locSlot = map[int]int32{}
	}
	for _, loc := range ar.locsBuf {
		ar.accLists[ar.locSlot[loc]] = ar.accLists[ar.locSlot[loc]][:0]
	}
	ar.locsBuf = ar.locsBuf[:0]
	addAccess := func(loc int, acc access) {
		slot, ok := ar.locSlot[loc]
		if !ok {
			slot = int32(len(ar.accLists))
			ar.locSlot[loc] = slot
			ar.accLists = append(ar.accLists, nil)
			ar.slotLoc = append(ar.slotLoc, int32(loc))
		}
		if len(ar.accLists[slot]) == 0 {
			ar.locsBuf = append(ar.locsBuf, loc)
		}
		ar.accLists[slot] = push(ar.accLists[slot], acc)
	}
	total := 0
	for c, evs := range a.Trace.PerCPU {
		for i, ev := range evs {
			id := EventID(a.base[c] + i)
			switch ev.Kind {
			case trace.Comp:
				// A location both read and written contributes a single
				// write access (the write subsumes the read for conflict
				// purposes).
				ev.Writes.Range(func(loc int) bool {
					addAccess(loc, access{ev: id, write: true})
					total++
					return true
				})
				ev.Reads.Range(func(loc int) bool {
					if !ev.Writes.Contains(loc) {
						addAccess(loc, access{ev: id})
						total++
					}
					return true
				})
			case trace.Sync:
				addAccess(int(ev.Loc), access{ev: id, write: ev.IsWriteSync(), sync: true})
				total++
			}
		}
	}

	locs := ar.locsBuf
	slices.Sort(locs)

	// Segment and bucket enumeration, serial: one pass over every sorted
	// location records its per-CPU segments into a shared read-only slab,
	// fills each access's prefix counts and skip pointers into one exactly
	// sized index slab (location li's run starts at idxOff[li]), and emits
	// one sweepUnit per segment pair with conflict potential.
	cpuOf := ar.cpuOf[:a.NumEvents]
	if cap(ar.idx) < total {
		ar.idx = make([]accessIndex, total)
	}
	segs, segOff, idxOff, units := ar.segs[:0], ar.segOff[:0], ar.idxOff[:0], ar.units[:0]
	segOff = append(segOff, 0)
	idxOff = append(idxOff, 0)
	for li, loc := range locs {
		accs := ar.accLists[ar.locSlot[loc]]
		idx := ar.idx[idxOff[li] : int(idxOff[li])+len(accs)]
		first := int32(len(segs))
		for s := int32(0); s < int32(len(accs)); {
			e := s + 1
			for e < int32(len(accs)) && cpuOf[accs[e].ev] == cpuOf[accs[s].ev] {
				e++
			}
			seg := locSeg{start: s, end: e}
			for i := s; i < e; i++ {
				x := &accs[i]
				idx[i].syncs, idx[i].syncWrites = seg.syncs, seg.syncWrites
				if x.write {
					seg.writes++
				}
				if x.sync {
					seg.syncs++
					if x.write {
						seg.syncWrites++
					}
				}
			}
			next := [numSkips]int32{e, e, e}
			for i := e - 1; i >= s; i-- {
				x := &accs[i]
				if x.write {
					next[skipWrite] = i
				}
				if !x.sync {
					next[skipComp] = i
					if x.write {
						next[skipCompWrite] = i
					}
				}
				idx[i].next = next
			}
			segs = append(segs, seg)
			s = e
		}
		nls := int32(len(segs)) - first
		for si := int32(0); si < nls; si++ {
			for ti := si + 1; ti < nls; ti++ {
				if segs[first+si].writes == 0 && segs[first+ti].writes == 0 {
					continue // read-only × read-only: no conflicts at all
				}
				units = append(units, sweepUnit{li: int32(li), si: si, ti: ti})
			}
		}
		segOff = append(segOff, int32(len(segs)))
		idxOff = append(idxOff, idxOff[li]+int32(len(accs)))
	}
	ar.segs, ar.segOff, ar.idxOff, ar.units = segs, segOff, idxOff, units
	a.sweepBuckets = int64(len(units))
	donePrep()

	workers := a.resolveWorkers()
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 2 || total < sweepThreshold {
		workers = 1
	}
	a.raceWorkers = workers
	for len(ar.shards) < workers {
		ar.shards = append(ar.shards, sweepShard{})
	}

	// Scan: workers pull buckets off a shared index; a hot location's
	// segment pairs therefore spread across the pool instead of
	// serializing behind one worker.
	doneScan := startPhase(reg, fl, "detect.sweep.scan")
	var next atomic.Int64
	a.pairShift = uint(bits.Len(uint(a.NumEvents)))
	shift := a.pairShift
	type sweepCounts struct{ cand, vcq, syncRaces int64 }
	sweep := func(sh *sweepShard) (n sweepCounts) {
		recs, partners := sh.recs[:0], sh.partners[:0]
		defer func() { sh.recs, sh.partners = recs, partners }()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(units) {
				return n
			}
			un := units[i]
			slot := ar.locSlot[locs[un.li]]
			accs := ar.accLists[slot]
			idx := ar.idx[idxOff[un.li]:idxOff[un.li+1]]
			base := segOff[un.li]
			S, T := segs[base+un.si], segs[base+un.ti]
			// Conflicting pairs in S×T = all pairs minus read-read
			// pairs, counted wholesale.
			sn, tn := S.end-S.start, T.end-T.start
			n.cand += int64(sn*tn - (sn-S.writes)*(tn-T.writes))
			if cap(sh.win) < int(2*sn) {
				sh.win = make([]int32, 2*sn)
			}
			win := sh.win[:2*sn]
			// p: end of T's prefix reaching x. q: start of T's suffix
			// reached by x. Both only move forward while x advances;
			// [p,q) is x's hb1-unordered window of T. Both boundaries
			// are read straight off x's clock: Window gives the exact
			// prefix count and suffix start of T's WHOLE stream, and
			// event ids are base+pos within a CPU, so the pointers
			// advance by threshold compares.
			p, q := T.start, T.start
			tcpu := int(cpuOf[accs[T.start].ev])
			tbase := a.base[tcpu]
			for xi := S.start; xi < S.end; xi++ {
				x := &accs[xi]
				predCount, succPos := a.HBTime.Window(int(x.ev), tcpu)
				n.vcq++
				for p < T.end && int(accs[p].ev)-tbase < int(predCount) {
					p++
				}
				if q < p {
					// On an hb1 cycle the prefix and suffix can overlap;
					// the unordered interval is empty.
					q = p
				}
				for q < T.end && int(accs[q].ev)-tbase < int(succPos) {
					q++
				}
				k := 2 * (xi - S.start)
				win[k], win[k+1] = p, q
				if p == q {
					continue
				}
				// x's minimal partner on T's CPU: the window's first
				// access, or its first write when x only reads.
				f := p
				if !x.write {
					f = idx[p].next[skipWrite]
				}
				if f < q {
					partners = push(partners, partnerRec{u: x.ev, v: accs[f].ev})
				}
				// Data records. A computation write conflicts with the
				// whole window; otherwise the skip class names the
				// accesses that make a data pair with x.
				skip := -1
				switch {
				case x.sync && x.write:
					skip = skipComp
				case x.sync:
					skip = skipCompWrite
				case !x.write:
					skip = skipWrite
				}
				for yi := p; yi < q; yi++ {
					if skip >= 0 {
						if yi = idx[yi].next[skip]; yi >= q {
							break
						}
					}
					// S's CPU precedes T's, and ids are processor-major,
					// so x.ev < y.ev: the key is already (A, B).
					recs = push(recs, pairRec{key: uint64(x.ev)<<shift | uint64(accs[yi].ev), slot: slot})
				}
				// Synchronization races: both sides synchronization
				// accesses and at least one a write.
				if x.sync {
					ps, psw := T.syncsBefore(idx, p)
					qs, qsw := T.syncsBefore(idx, q)
					if x.write {
						n.syncRaces += int64(qs - ps)
					} else {
						n.syncRaces += int64(qsw - psw)
					}
				}
			}
			// Reverse pass: y's unordered window of S is the run of x
			// with p_x ≤ y < q_x — both bounds non-decreasing in x, so
			// two pointers find it — and y's minimal partner on S's CPU
			// is that run's first conflicting access.
			lo, hi := int32(0), int32(0)
			for yi := T.start; yi < T.end; yi++ {
				for lo < sn && win[2*lo+1] <= yi {
					lo++
				}
				for hi < sn && win[2*hi] <= yi {
					hi++
				}
				if lo >= hi {
					continue
				}
				f := S.start + lo
				if !accs[yi].write {
					f = idx[f].next[skipWrite]
				}
				if f < S.start+hi {
					partners = push(partners, partnerRec{u: accs[yi].ev, v: accs[f].ev})
				}
			}
		}
	}

	counts := make([]sweepCounts, workers)
	if workers == 1 {
		counts[0] = sweep(&ar.shards[0])
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				counts[w] = sweep(&ar.shards[w])
			}(w)
		}
		wg.Wait()
	}
	for _, c := range counts {
		a.candidatePairs += c.cand
		a.vcWindowQueries += c.vcq
		a.SyncRaces += c.syncRaces
	}
	doneScan()

	// Deterministic merge: concatenate the partials and sort by packed
	// pair key. Records with equal keys differ only in their location,
	// which the coalesce folds commutatively, so the Analysis is
	// byte-identical for every worker count and work-stealing schedule
	// even though the sort is not stable. The sequential path sorts its
	// single partial in place; the records are dead after the coalesce
	// below, so every buffer returns to the arena.
	doneMerge := startPhase(reg, fl, "detect.sweep.merge")
	recs := ar.shards[0].recs
	if workers > 1 {
		nRecs := 0
		for w := 0; w < workers; w++ {
			nRecs += len(ar.shards[w].recs)
		}
		if cap(ar.recsMerge) < nRecs {
			ar.recsMerge = make([]pairRec, 0, nRecs)
		}
		recs = ar.recsMerge[:0]
		for w := 0; w < workers; w++ {
			recs = append(recs, ar.shards[w].recs...)
		}
		ar.recsMerge = recs
	}
	slices.SortFunc(recs, func(x, y pairRec) int { return cmp.Compare(x.key, y.key) })
	doneMerge()

	doneCoalesce := startPhase(reg, fl, "detect.sweep.coalesce")
	a.internLocSets(recs, locs)
	// Coalesce sorted runs into races. Packed keys order exactly like the
	// (A, B) lexicographic order the report promises; within a run the
	// record order is irrelevant — location-set insertion is commutative,
	// which is also why the sort never needs to be stable across worker
	// schedules. len(recs) bounds the race count tightly (nearly every pair
	// has one location), so Races is allocated once at that bound and
	// truncated.
	races := make([]Race, len(recs))
	ri := 0
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].key == recs[i].key {
			j++
		}
		a.fillRace(&races[ri], recs[i:j])
		ri++
		i = j
	}
	a.Races = races[:ri:ri]
	if len(a.Races) > 0 {
		a.DataRaces = make([]int, len(a.Races))
		for i := range a.DataRaces {
			a.DataRaces[i] = i
		}
	}
	doneCoalesce()
}

// internLocSets gives every location slot that occurs in recs one
// canonical singleton set. Nearly every data race involves exactly one
// location, and each (pair, location) combination occurs at most once in
// recs, so a run of length one IS a single-location race — it shares the
// interned {loc} set instead of carrying a private set. Location sets are
// owned by the Analysis and must be treated as read-only — races on the
// same location alias one set.
func (a *Analysis) internLocSets(recs []pairRec, locs []int) {
	ar := a.Options.Arena
	if cap(ar.canon) < len(ar.accLists) {
		ar.canon = make([]*bitset.Set, len(ar.accLists))
	}
	ar.canon = ar.canon[:len(ar.accLists)]
	for _, loc := range locs {
		ar.canon[ar.locSlot[loc]] = nil
	}
	// Mark the slots in use with a sentinel, sizing one slab for all of
	// their sets.
	var inUse bitset.Set
	nSets, words := 0, 0
	for i := range recs {
		if s := recs[i].slot; ar.canon[s] == nil {
			ar.canon[s] = &inUse
			nSets++
			words += int(ar.slotLoc[s])/64 + 1
		}
	}
	if nSets == 0 {
		return
	}
	sets := make([]bitset.Set, 0, nSets)
	slab := make([]uint64, words)
	for _, loc := range locs {
		s := ar.locSlot[loc]
		if ar.canon[s] != &inUse {
			continue
		}
		w := loc/64 + 1
		sets = append(sets, *bitset.Wrap(slab[:w:w]))
		sets[len(sets)-1].Add(loc)
		ar.canon[s] = &sets[len(sets)-1]
		slab = slab[w:]
	}
}

// fillRace materializes one sorted equal-key run of sweep records as a
// data race: unpack the pair, share the canonical {loc} set for the
// dominant single-location case, build a private set otherwise.
func (a *Analysis) fillRace(r *Race, run []pairRec) {
	ar := a.Options.Arena
	shift := a.pairShift
	r.A = EventID(run[0].key >> shift)
	r.B = EventID(run[0].key & (1<<shift - 1))
	r.Data = true
	if len(run) == 1 {
		r.Locs = ar.canon[run[0].slot]
		return
	}
	maxLoc := ar.slotLoc[run[0].slot]
	for _, rec := range run[1:] {
		if l := ar.slotLoc[rec.slot]; l > maxLoc {
			maxLoc = l
		}
	}
	r.Locs = bitset.Wrap(make([]uint64, int(maxLoc)/64+1))
	for _, rec := range run {
		r.Locs.Add(int(ar.slotLoc[rec.slot]))
	}
}

// ForEachSyncRace calls f for every synchronization race — two
// synchronization events on one location, at least one a write, not
// ordered by hb1 — in (A, B) order, until f returns false. Races holds
// only the data races; the synchronization races are counted during the
// sweep (SyncRaces) and re-derived here on demand, for callers that need
// the pairs themselves, such as the flight recorder.
//
// The cost is one HBWindow query and one binary search per
// (synchronization event, later CPU) plus one step per synchronization
// access inside a window — every step yields a race except a read's step
// over another read — and nothing for computation events. Each call
// allocates one {loc} set per location it yields races on; nothing is
// retained.
func (a *Analysis) ForEachSyncRace(f func(Race) bool) {
	if a.SyncRaces == 0 {
		return
	}
	t := a.Trace
	type syncAcc struct {
		ev    EventID
		pos   int32
		write bool
	}
	// byLoc[loc][cpu] lists the location's synchronization accesses on
	// that CPU, po-ascending.
	byLoc := map[int][][]syncAcc{}
	for c, evs := range t.PerCPU {
		for i, ev := range evs {
			if ev.Kind != trace.Sync {
				continue
			}
			per := byLoc[int(ev.Loc)]
			if per == nil {
				per = make([][]syncAcc, t.NumCPUs)
				byLoc[int(ev.Loc)] = per
			}
			per[c] = append(per[c], syncAcc{ev: EventID(a.base[c] + i), pos: int32(i), write: ev.IsWriteSync()})
		}
	}
	sets := map[int]*bitset.Set{}
	for c, evs := range t.PerCPU {
		for i, ev := range evs {
			if ev.Kind != trace.Sync {
				continue
			}
			loc := int(ev.Loc)
			per := byLoc[loc]
			x := EventID(a.base[c] + i)
			xw := ev.IsWriteSync()
			// Partners B > A sit on later CPUs (same-CPU pairs are
			// po-ordered), visited in id order: CPU, then position.
			for d := c + 1; d < t.NumCPUs; d++ {
				seg := per[d]
				if len(seg) == 0 {
					continue
				}
				lastPred, firstSucc := a.HBWindow(x, d)
				k := sort.Search(len(seg), func(k int) bool { return int(seg[k].pos) > lastPred })
				for ; k < len(seg) && int(seg[k].pos) < firstSucc; k++ {
					if !xw && !seg[k].write {
						continue
					}
					s := sets[loc]
					if s == nil {
						s = bitset.Wrap(make([]uint64, loc/64+1))
						s.Add(loc)
						sets[loc] = s
					}
					if !f(Race{A: x, B: seg[k].ev, Locs: s}) {
						return
					}
				}
			}
		}
	}
}

// ForEachRace calls f for every race, data and synchronization, in (A, B)
// order — Races merged with ForEachSyncRace — until f returns false. It
// has ForEachSyncRace's cost on top of the walk over Races.
func (a *Analysis) ForEachRace(f func(Race) bool) {
	di, stopped := 0, false
	a.ForEachSyncRace(func(r Race) bool {
		for di < len(a.Races) && (a.Races[di].A < r.A || a.Races[di].A == r.A && a.Races[di].B < r.B) {
			if !f(a.Races[di]) {
				stopped = true
				return false
			}
			di++
		}
		if !f(r) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, r := range a.Races[di:] {
		if !f(r) {
			return
		}
	}
}

// buildImplicitAug computes the partition structure of the augmented
// graph G′ without materializing G′: Tarjan runs over the implicit
// adjacency hb1 ⊕ extras, where extras[u] keeps, per partner CPU, only
// u's po-MINIMAL race partner on that CPU, in ascending CPU order.
//
// Collapsing the race edges this way preserves the transitive closure of
// G′ — hb1 plus a doubly-directed edge per race, data or synchronization
// (§4.2) — exactly. A dropped edge u→v (v racing u on CPU d) is simulated by the
// kept edge u→m — m the minimal partner of u on d, so m ≤ v — followed
// by the program-order chain m⇝v inside d's event stream; the reverse
// edge v→u is simulated symmetrically through v's minimal partner on u's
// CPU. Kept edges are a subset of the dropped set's closure, so the two
// closures — and with them the SCCs (as node sets), the condensation
// reachability, the partitions, and the first-partition flags of
// Theorems 4.1/4.2 — coincide with those of the materialized G′, which
// the definition-level oracle in internal/crosscheck builds.
//
// The entries come from the sweep's partner proposals: one per
// (access, opposite segment), each the first conflicting access of that
// access's window, so the minimum over an event's proposals for one CPU
// is its minimal partner there. The fold buckets the proposals by node
// in one arena slab (a counting pass, then a scatter), sorts each node's
// run, and keeps the first entry per CPU: event ids are processor-major,
// so that is the per-CPU minimum and the kept list is CPU-ascending —
// exactly the list the old walk over (A, B)-sorted races built, so
// Tarjan numbers the components identically. Sorting makes the lists
// independent of which worker proposed what. Entry count is bounded by
// racy-nodes × (CPUs−1), versus two edges per race pair. Partition
// ordering is answered by memoized per-source DFS over the condensation
// (graph.CondReach), never a full closure.
func (a *Analysis) buildImplicitAug() {
	ar := a.Options.Arena
	n := a.NumEvents
	cpuOf := ar.cpuOf[:n] // filled once per analysis by fillStreamIndex
	if cap(ar.augOff) < n+1 {
		ar.augOff = make([]int32, n+1)
	}
	off := ar.augOff[:n+1]
	clear(off)
	for w := 0; w < a.raceWorkers; w++ {
		for _, pr := range ar.shards[w].partners {
			off[pr.u+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	if cap(ar.augSlab) < int(off[n]) {
		ar.augSlab = make([]int32, off[n])
	}
	slab := ar.augSlab[:off[n]]
	// Scatter with off[u] as node u's cursor: afterwards off[u] is the
	// end of u's run, which is where u+1's run starts.
	for w := 0; w < a.raceWorkers; w++ {
		for _, pr := range ar.shards[w].partners {
			slab[off[pr.u]] = int32(pr.v)
			off[pr.u]++
		}
	}
	if cap(ar.extras) < n {
		ar.extras = make([][]int32, n)
	}
	extras := ar.extras[:n]
	var nEntries int64
	start := int32(0)
	for u := range extras {
		run := slab[start:off[u]]
		start = off[u]
		if len(run) > 1 {
			slices.Sort(run)
		}
		k := 0
		for _, v := range run {
			if k == 0 || cpuOf[v] != cpuOf[run[k-1]] {
				run[k] = v
				k++
			}
		}
		extras[u] = run[:k:k]
		nEntries += int64(k)
	}

	scc := graph.StronglyConnectedOverlay(a.HB, extras, &ar.scratch)
	a.AugSCC = scc
	dag := graph.CondensationOverlay(a.HB, extras, scc, &ar.scratch)
	a.augCond = graph.NewCondReach(dag, scc)
	a.augEdges = nEntries
}
