package graph

import (
	"fmt"
	"runtime"
	"sync"

	"weakrace/internal/telemetry"
	"weakrace/internal/vclock"
)

// Timestamps answers reachability queries on a stream-structured digraph
// — one whose nodes are partitioned into per-processor streams, each
// stream chained by program-order edges — with vector-clock timestamps
// computed in a single topological pass, instead of bitset closure rows.
// This is the shape of the detector's happens-before-1 graph (po chains
// plus so1 edges), and the pass is the linear-time timestamping of
// Kini/Mathur-style happens-before detectors lifted to the post-mortem
// graph.
//
// hb1 may contain cycles on a weak execution (paper §3.1), so the clocks
// are assigned per strongly connected component. The forward clock of
// component c is
//
//	fw[c][p] = 1 + max{ pos(y) : y in stream p, comp(y) reaches c }
//
// (0 when no p-event reaches c). Program order makes "reaches x" a
// PREFIX of each stream, so that single per-stream maximum characterizes
// the entire ancestor cone exactly — on the acyclic part each component
// is one event and the clock is the classic event timestamp; cycles are
// handled exactly because members of an SCC share one clock. Hence
//
//	u reaches v  ⟺  u == v  or  fw[comp(v)][stream(u)] > pos(u),
//
// an O(1) epoch compare (vclock.Epoch.Covered). The mirrored backward
// frontier bw[c][p] is the least position of stream p reached from c, so
// Window brackets a whole stream against an event with two slab reads —
// the quantity the race sweep and the provenance certificates consume
// directly.
//
// The clocks are computed span-parallel. A node is a forward SPAN HEAD
// when its clock is not derivable from its program-order predecessor:
// the first event of its stream, any event with an incoming cross edge
// (an so1 acquire), and any event in — or immediately after — a
// multi-member SCC. Every other node v is forward-INTERIOR: its only
// ancestors are its po-predecessor's ancestors plus itself, so its clock
// is its span head's clock with the own-stream coordinate bumped to
// pos(v)+1. (A same-stream event past v reaching v would close a cycle
// and put v in a multi-member SCC — a head.) A serial SKELETON pass
// therefore clocks only the head components, in descending Tarjan order,
// folding in-edge contributions (an interior predecessor u contributes
// its head's row with stream(u) ↦ pos(u)+1); the per-span FILL of all
// interior rows then runs embarrassingly parallel over disjoint
// singleton-component rows. Backward frontiers mirror the scheme with
// span TAILS (outgoing cross edges — releases — stream ends, and
// multi-member SCC boundaries) and an ascending skeleton. The slabs are
// byte-identical for every worker count: the skeleton is serial and each
// fill write is a pure function of the skeleton rows.
//
// The clocks are exact only when every stream's events form a
// program-order chain in g (the span derivation rides on that chain);
// arbitrary digraphs without that structure need CondReach over their
// condensation instead.
type Timestamps struct {
	scc    *SCC
	stream []int32 // stream[u]: the stream (processor) of node u
	pos    []int32 // pos[u]: u's position within its stream
	width  int
	fw     []uint32 // forward clocks, NumComponents x width
	bw     []int32  // backward frontiers, NumComponents x width
	strLen []int32  // events per stream (backward-frontier "none" value)
}

// Span-boundary flags: tsHead starts a forward span (the node's clock is
// not derivable from its po-predecessor), tsTail ends a backward span.
const (
	tsHead uint8 = 1 << iota
	tsTail
)

// fillParallelCutoff is the node count below which the interior fill
// stays sequential: goroutine fan-out costs more than the copies on
// small graphs. The slabs are identical either way.
const fillParallelCutoff = 1 << 12

// NewTimestamps computes vector-clock timestamps for g, whose node u
// belongs to stream stream[u] (< width) at position pos[u], with each
// stream's events chained in program order. stream and pos are copied,
// so arena-backed callers may reuse their buffers; s (optional) supplies
// the Tarjan and span scratch. workers bounds the parallelism of the
// interior fill (0 means GOMAXPROCS; small graphs stay sequential); the
// resulting clocks are byte-identical for every worker count.
func NewTimestamps(g *Digraph, stream, pos []int32, width int, s *Scratch, workers int) *Timestamps {
	defer telemetry.Default().StartSpan("graph.timestamps").End()
	n := g.N()
	if len(stream) != n || len(pos) != n {
		panic(fmt.Sprintf("graph: NewTimestamps: %d nodes but %d streams / %d positions",
			n, len(stream), len(pos)))
	}
	scc := StronglyConnectedOverlay(g, nil, s)
	k := scc.NumComponents()
	t := &Timestamps{
		scc:    scc,
		stream: append([]int32(nil), stream...),
		pos:    append([]int32(nil), pos...),
		width:  width,
		fw:     make([]uint32, k*width),
		bw:     make([]int32, k*width),
		strLen: make([]int32, width),
	}
	for u := 0; u < n; u++ {
		if l := pos[u] + 1; l > t.strLen[stream[u]] {
			t.strLen[stream[u]] = l
		}
	}
	if s == nil {
		s = &Scratch{}
	}
	comp := scc.Comp

	// Stream-major node index: nodeAt[strStart[p]+i] is stream p's node at
	// position i — how the span walks find po-neighbors without a reverse
	// adjacency.
	strStart := s.i32s(&s.tsStrStart, width+1)
	off := int32(0)
	for p := 0; p < width; p++ {
		strStart[p] = off
		off += t.strLen[p]
	}
	strStart[width] = off
	nodeAt := s.i32s(&s.tsNodeAt, int(off))
	for i := range nodeAt {
		nodeAt[i] = -1
	}
	for u := 0; u < n; u++ {
		nodeAt[strStart[stream[u]]+pos[u]] = int32(u)
	}

	// Span classification. Heads: stream starts, cross-edge targets,
	// multi-member SCC members and their po-successors. Tails mirror:
	// stream ends, cross-edge sources, multi-member SCC members and their
	// po-predecessors.
	flags := s.bytes(&s.tsFlags, n)
	for i := range flags {
		flags[i] = 0
	}
	for c := 0; c < k; c++ {
		if len(scc.Members[c]) < 2 {
			continue
		}
		for _, u := range scc.Members[c] {
			flags[u] |= tsHead | tsTail
			p := stream[u]
			if i := pos[u] + 1; i < t.strLen[p] {
				if v := nodeAt[strStart[p]+i]; v >= 0 {
					flags[v] |= tsHead
				}
			}
			if i := pos[u] - 1; i >= 0 {
				if v := nodeAt[strStart[p]+i]; v >= 0 {
					flags[v] |= tsTail
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		// A missing po-neighbor slot (positions are documented contiguous,
		// but decoded input may violate that) is a span boundary too —
		// derivation must never ride a chain edge that is not there.
		if pos[u] == 0 || nodeAt[strStart[stream[u]]+pos[u]-1] < 0 {
			flags[u] |= tsHead
		}
		if i := pos[u] + 1; i == t.strLen[stream[u]] || nodeAt[strStart[stream[u]]+i] < 0 {
			flags[u] |= tsTail
		}
		for _, v := range g.adj[u] {
			if stream[v] != stream[u] || pos[v] != pos[u]+1 {
				flags[v] |= tsHead
				flags[u] |= tsTail
			}
		}
	}

	// Span anchors: headOf[u] is the nearest head at or before u in its
	// stream, tailOf[u] the nearest tail at or after — the rows interior
	// nodes derive from. The forward walk also measures the spans for
	// telemetry.
	headOf := s.i32s(&s.tsHeadOf, n)
	tailOf := s.i32s(&s.tsTailOf, n)
	spans, maxSpan := 0, 0
	for p := 0; p < width; p++ {
		base := strStart[p]
		cur, curLen := int32(-1), 0
		for i := int32(0); i < t.strLen[p]; i++ {
			u := nodeAt[base+i]
			if u < 0 {
				cur, curLen = -1, 0
				continue
			}
			if flags[u]&tsHead != 0 || cur < 0 {
				cur, curLen = u, 0
				spans++
			}
			curLen++
			if curLen > maxSpan {
				maxSpan = curLen
			}
			headOf[u] = cur
		}
		cur = int32(-1)
		for i := t.strLen[p] - 1; i >= 0; i-- {
			u := nodeAt[base+i]
			if u < 0 {
				cur = -1
				continue
			}
			if flags[u]&tsTail != 0 || cur < 0 {
				cur = u
			}
			tailOf[u] = cur
		}
	}

	// Frontier components: the ones holding a head (forward) or a tail
	// (backward) — the only rows the serial skeletons compute. Interior
	// nodes are singleton components, so the skeleton and fill row sets
	// are disjoint.
	compFlags := s.bytes(&s.tsCompFlags, k)
	for i := range compFlags {
		compFlags[i] = 0
	}
	for u := 0; u < n; u++ {
		compFlags[comp[u]] |= flags[u]
	}

	// Forward skeleton, descending component ids. Tarjan numbers edges
	// from higher ids to lower, so every contribution — a head's own
	// (higher-id) component row, or an interior predecessor's head row,
	// which lies higher still — is final before it is folded. The in-edge
	// CSR covers only edges into head components.
	inOff := s.i32s(&s.tsInOff, k+1)
	for i := range inOff {
		inOff[i] = 0
	}
	for u := 0; u < n; u++ {
		cu := comp[u]
		for _, v := range g.adj[u] {
			if cv := comp[v]; cv != cu && compFlags[cv]&tsHead != 0 {
				inOff[cv+1]++
			}
		}
	}
	for c := 0; c < k; c++ {
		inOff[c+1] += inOff[c]
	}
	inCur := s.i32s(&s.tsInCur, k)
	copy(inCur, inOff[:k])
	inSrc := s.i32s(&s.tsInSrc, int(inOff[k]))
	for u := 0; u < n; u++ {
		cu := comp[u]
		for _, v := range g.adj[u] {
			if cv := comp[v]; cv != cu && compFlags[cv]&tsHead != 0 {
				inSrc[inCur[cv]] = int32(u)
				inCur[cv]++
			}
		}
	}
	for c := k - 1; c >= 0; c-- {
		if compFlags[c]&tsHead == 0 {
			continue
		}
		row := t.fw[c*width : (c+1)*width]
		for _, u := range scc.Members[c] {
			if e := uint32(pos[u]) + 1; e > row[stream[u]] {
				row[stream[u]] = e
			}
		}
		for _, u32 := range inSrc[inOff[c]:inOff[c+1]] {
			u := int(u32)
			src := u
			if flags[u]&tsHead == 0 {
				src = int(headOf[u])
			}
			srow := t.fw[comp[src]*width : (comp[src]+1)*width]
			for i, x := range srow {
				if x > row[i] {
					row[i] = x
				}
			}
			if flags[u]&tsHead == 0 {
				if e := uint32(pos[u]) + 1; e > row[stream[u]] {
					row[stream[u]] = e
				}
			}
		}
	}

	// Backward skeleton, ascending component ids (successors are final
	// before any predecessor reads them). An interior successor v
	// contributes its tail's frontier with stream(v) ↦ pos(v).
	for c := 0; c < k; c++ {
		if compFlags[c]&tsTail == 0 {
			continue
		}
		row := t.bw[c*width : (c+1)*width]
		copy(row, t.strLen)
		for _, u := range scc.Members[c] {
			for _, v := range g.adj[u] {
				if comp[v] == c {
					continue
				}
				src := v
				if flags[v]&tsTail == 0 {
					src = int(tailOf[v])
				}
				srow := t.bw[comp[src]*width : (comp[src]+1)*width]
				for i, x := range srow {
					if x < row[i] {
						row[i] = x
					}
				}
				if flags[v]&tsTail == 0 {
					if pos[v] < row[stream[v]] {
						row[stream[v]] = pos[v]
					}
				}
			}
		}
		for _, u := range scc.Members[c] {
			if pos[u] < row[stream[u]] {
				row[stream[u]] = pos[u]
			}
		}
	}

	// Interior fill: every non-head copies its span head's clock with the
	// own-stream coordinate bumped; every non-tail mirrors for the
	// backward frontier. Each write lands in the node's own singleton-
	// component row — disjoint from every other write and from the
	// skeleton rows — and reads only skeleton rows, so the fill
	// parallelizes over arbitrary node ranges with no synchronization and
	// a schedule-independent result.
	fillRange := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			f := flags[u]
			if f&tsHead == 0 {
				c, h := comp[u], comp[headOf[u]]
				row := t.fw[c*width : (c+1)*width]
				copy(row, t.fw[h*width:(h+1)*width])
				row[stream[u]] = uint32(pos[u]) + 1
			}
			if f&tsTail == 0 {
				c, tl := comp[u], comp[tailOf[u]]
				row := t.bw[c*width : (c+1)*width]
				copy(row, t.bw[tl*width:(tl+1)*width])
				row[stream[u]] = pos[u]
			}
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && n >= fillParallelCutoff {
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fillRange(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		fillRange(0, n)
	}

	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("graph.vc.builds").Inc()
		reg.Counter("graph.vc.nodes").Add(int64(n))
		reg.Counter("graph.vc.components").Add(int64(k))
		reg.Counter("graph.vc.clock_words").Add(int64(2 * k * width))
		reg.Counter("graph.ts.spans").Add(int64(spans))
		reg.Gauge("graph.ts.span_max_events").SetMax(int64(maxSpan))
	}
	return t
}

// SCC returns the component structure computed for the graph.
func (t *Timestamps) SCC() *SCC { return t.scc }

// Width returns the clock width (number of streams).
func (t *Timestamps) Width() int { return t.width }

// VCOf returns node v's forward vector clock — the clock of its
// component, aliasing the shared slab; callers must not mutate it.
func (t *Timestamps) VCOf(v int) vclock.VC {
	c := t.scc.Comp[v]
	return vclock.VC(t.fw[c*t.width : (c+1)*t.width])
}

// EpochOf returns node u's epoch: position pos(u)+1 on stream(u). A
// clock covers the epoch exactly when its node is reached from u.
func (t *Timestamps) EpochOf(u int) vclock.Epoch {
	return vclock.Epoch{P: int(t.stream[u]), C: uint32(t.pos[u]) + 1}
}

// Reaches reports whether there is a (possibly empty) path from u to v.
// Reaches(u, u) is always true. The compare is vclock.OrderedFast: the
// O(1) epoch check decides, with the full clock scan as the oracle slow
// path.
func (t *Timestamps) Reaches(u, v int) bool {
	if u == v {
		return true
	}
	return vclock.OrderedFast(t.EpochOf(u), t.VCOf(u), t.VCOf(v))
}

// Window brackets event u against stream p in two slab reads: events of
// p at positions < predCount reach u, and events at positions ≥ succPos
// are reached from u. Program order makes both sets a prefix and a
// suffix respectively, and both bounds are monotone non-decreasing as u
// advances along its own stream — the invariants the detector's
// two-pointer sweep and the provenance certificates rest on. predCount
// and succPos both lie in [0, stream length]; the window may be empty
// (predCount ≥ succPos happens on hb1 cycles and for u's own stream).
func (t *Timestamps) Window(u, p int) (predCount, succPos int32) {
	c := t.scc.Comp[u]
	return int32(t.fw[c*t.width+p]), t.bw[c*t.width+p]
}
