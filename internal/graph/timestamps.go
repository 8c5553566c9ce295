package graph

import (
	"fmt"

	"weakrace/internal/telemetry"
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
// one O(1) compare. The mirrored backward frontier bw[c][p] is the
// least position of stream p reached from c, so Window brackets a whole
// stream against an event with two slab reads — the quantity the race
// sweep and the provenance certificates consume directly.
//
// Both slabs come from one pass over the SCC condensation. Tarjan
// numbers every cross-component edge from a higher component id to a
// lower one, so visiting components in descending id finalizes a
// component's forward clock before it is pushed along its out-edges, and
// visiting them in ascending id finalizes every successor's backward
// frontier before a predecessor folds it in. The pass is serial and
// costs O((N + M) × width).
//
// Reaches and Window are exact only when every stream's events form a
// program-order chain in g (the prefix and suffix shapes ride on that
// chain); arbitrary digraphs without that structure need CondReach over
// their condensation instead.
type Timestamps struct {
	scc    *SCC
	stream []int32 // stream[u]: the stream (processor) of node u
	pos    []int32 // pos[u]: u's position within its stream
	width  int
	fw     []uint32 // forward clocks, NumComponents x width
	bw     []int32  // backward frontiers, NumComponents x width
}

// NewTimestamps computes vector-clock timestamps for g, whose node u
// belongs to stream stream[u] (< width) at position pos[u], with each
// stream's events chained in program order. stream and pos are copied,
// so arena-backed callers may reuse their buffers; s (optional) supplies
// the Tarjan scratch.
func NewTimestamps(g *Digraph, stream, pos []int32, width int, s *Scratch) *Timestamps {
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
	}
	comp := scc.Comp

	// Forward clocks, descending component ids: every predecessor has
	// pushed its row before c folds in its own members and pushes on.
	for c := k - 1; c >= 0; c-- {
		row := t.fw[c*width : (c+1)*width]
		for _, u := range scc.Members[c] {
			if e := uint32(pos[u]) + 1; e > row[stream[u]] {
				row[stream[u]] = e
			}
		}
		for _, u := range scc.Members[c] {
			for _, v := range g.adj[u] {
				if cv := comp[v]; cv != c {
					dst := t.fw[cv*width : (cv+1)*width]
					for i, x := range row {
						if x > dst[i] {
							dst[i] = x
						}
					}
				}
			}
		}
	}

	// Backward frontiers, ascending component ids: every successor's row
	// is final before c folds it in. Stream length is the "none reached"
	// value.
	strLen := make([]int32, width)
	for u := 0; u < n; u++ {
		if l := pos[u] + 1; l > strLen[stream[u]] {
			strLen[stream[u]] = l
		}
	}
	for c := 0; c < k; c++ {
		row := t.bw[c*width : (c+1)*width]
		copy(row, strLen)
		for _, u := range scc.Members[c] {
			for _, v := range g.adj[u] {
				if cv := comp[v]; cv != c {
					for i, x := range t.bw[cv*width : (cv+1)*width] {
						if x < row[i] {
							row[i] = x
						}
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

	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("graph.vc.builds").Inc()
		reg.Counter("graph.vc.nodes").Add(int64(n))
		reg.Counter("graph.vc.components").Add(int64(k))
		reg.Counter("graph.vc.clock_words").Add(int64(2 * k * width))
	}
	return t
}

// SCC returns the component structure computed for the graph.
func (t *Timestamps) SCC() *SCC { return t.scc }

// Width returns the clock width (number of streams).
func (t *Timestamps) Width() int { return t.width }

// Reaches reports whether there is a (possibly empty) path from u to v.
// Reaches(u, u) is always true; otherwise it is the one compare
// fw[comp(v)][stream(u)] > pos(u).
func (t *Timestamps) Reaches(u, v int) bool {
	return u == v || t.fw[t.scc.Comp[v]*t.width+int(t.stream[u])] > uint32(t.pos[u])
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
