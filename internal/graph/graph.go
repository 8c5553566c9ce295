// Package graph implements the directed-graph machinery the detector needs:
// adjacency-list digraphs, Tarjan's strongly-connected-components algorithm
// over a graph plus an overlay adjacency, the condensation DAG with memoized
// component reachability (CondReach), and the vector-clock timestamps that
// answer hb1 ordering queries (Timestamps).
//
// The happens-before-1 graph of a weak execution is NOT guaranteed to be
// acyclic (paper §3.1: "the so1 relation and hence the hb1 relation may
// contain cycles"), and the augmented graph G′ of §4.2 contains a cycle for
// every race edge by construction. Everything here therefore works on
// arbitrary digraphs: reachability is computed on the SCC condensation,
// which is always a DAG.
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

	"weakrace/internal/bitset"
	"weakrace/internal/telemetry"
)

// Digraph is a directed graph over nodes 0..N-1 with adjacency lists.
// Parallel edges are permitted (and harmless for reachability/SCC).
// A Digraph is not safe for concurrent use while it is being mutated.
type Digraph struct {
	adj  [][]int
	nEdg int
}

// New returns a digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: New(%d): negative size", n))
	}
	return &Digraph{adj: make([][]int, n)}
}

// NewWithDegrees returns a digraph with len(deg) nodes and no edges,
// whose adjacency lists are pre-carved out of one edge slab with
// capacity deg[u] each. A caller that counts its out-degrees up front
// (the detector's hb1 builder) then adds every edge with zero per-node
// allocations; exceeding a declared degree still works — that node's
// list just falls off the slab and grows normally.
func NewWithDegrees(deg []int32) *Digraph {
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	slab := make([]int, total)
	adj := make([][]int, len(deg))
	off := 0
	for u, d := range deg {
		end := off + int(d)
		adj[u] = slab[off:off:end]
		off = end
	}
	return &Digraph{adj: adj}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Digraph) M() int { return g.nEdg }

func (g *Digraph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(g.adj)))
	}
}

// AddEdge adds the directed edge u→v.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.adj[u] = append(g.adj[u], v)
	g.nEdg++
}

// Succ returns the successor list of u. The slice is owned by the graph and
// must not be mutated.
func (g *Digraph) Succ(u int) []int {
	g.check(u)
	return g.adj[u]
}

// SCC holds the strongly connected components of a digraph: Comp[v] is the
// component id of node v, and components are numbered in reverse
// topological order of the condensation (Tarjan's property: a component is
// assigned its id only after all components it can reach). Members lists
// the nodes of each component.
type SCC struct {
	Comp    []int
	Members [][]int

	maxSize int
}

// NumComponents returns the number of strongly connected components.
func (s *SCC) NumComponents() int { return len(s.Members) }

// MaxSize returns the size of the largest component. It is tracked while
// Tarjan closes components, so consumers (telemetry, reports) share one
// computation instead of each rescanning Members.
func (s *SCC) MaxSize() int { return s.maxSize }

// Scratch holds reusable traversal buffers for StronglyConnectedOverlay
// and CondensationOverlay: the Tarjan bookkeeping arrays and DFS stacks,
// plus the packed-key buffer the condensation sort-dedupe uses. Only
// buffers that are NOT retained by the returned structures live here
// (SCC.Comp, SCC.Members, and the condensation's adjacency are always
// freshly allocated — callers keep them after the scratch is reused).
// A Scratch is not safe for concurrent use; pool one per worker.
type Scratch struct {
	index, low         []int
	onStack            []bool
	stack              []int
	callNode, callEdge []int
	keys               []uint64
}

func (s *Scratch) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// StronglyConnectedOverlay computes the SCCs of the graph g ⊕ extra: the
// node set of g with, for every node u, the successors g.Succ(u) followed
// by extra[u]. The overlay graph is never materialized — this is how the
// detector runs Tarjan over the augmented graph G′ (hb1 edges plus
// per-node race-partner lists) without cloning a multi-million-edge
// digraph. extra may be nil (plain SCCs of g); s may be nil (scratch is
// allocated locally). The returned SCC's Comp/Members are freshly
// allocated and remain valid after s is reused.
func StronglyConnectedOverlay(g *Digraph, extra [][]int32, s *Scratch) *SCC {
	n := g.N()
	if extra != nil && len(extra) != n {
		panic(fmt.Sprintf("graph: overlay size %d, graph size %d", len(extra), n))
	}
	if s == nil {
		s = &Scratch{}
	}
	const unvisited = -1
	index := s.ints(&s.index, n)
	low := s.ints(&s.low, n)
	comp := make([]int, n)
	if cap(s.onStack) < n {
		s.onStack = make([]bool, n)
	}
	onStack := s.onStack[:n]
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
		onStack[i] = false
	}
	var (
		members [][]int
		maxSize int
		nextIdx int
	)
	// Every node lands in exactly one component, so all Members rows are
	// carved out of one n-int slab — one allocation instead of one per
	// component (the per-component append was a third of the detector's
	// allocation profile). The slab is freshly allocated, never pooled:
	// Members is retained by the caller after the scratch is reused.
	slab := make([]int, 0, n)
	stack := s.stack[:0]       // Tarjan's node stack
	callNode := s.callNode[:0] // explicit DFS stack: node
	callEdge := s.callEdge[:0] // explicit DFS stack: next successor index to visit
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callNode = append(callNode[:0], root)
		callEdge = append(callEdge[:0], 0)
		index[root] = nextIdx
		low[root] = nextIdx
		nextIdx++
		stack = append(stack, root)
		onStack[root] = true
		for len(callNode) > 0 {
			// Scan the frame's remaining successors — g's own adjacency
			// first, then the overlay list — in one tight loop, keeping
			// the lowlink in a register. One stack round-trip per DFS
			// descent, not one per edge.
			v := callNode[len(callNode)-1]
			ei := callEdge[len(callEdge)-1]
			adj := g.adj[v]
			lowv := low[v]
			descended := false
			for {
				var w int
				if ei < len(adj) {
					w = adj[ei]
				} else if extra != nil {
					x := extra[v]
					if ei-len(adj) >= len(x) {
						break
					}
					w = int(x[ei-len(adj)])
				} else {
					break
				}
				ei++
				if index[w] == unvisited {
					callEdge[len(callEdge)-1] = ei
					low[v] = lowv
					index[w] = nextIdx
					low[w] = nextIdx
					nextIdx++
					stack = append(stack, w)
					onStack[w] = true
					callNode = append(callNode, w)
					callEdge = append(callEdge, 0)
					descended = true
					break
				} else if onStack[w] && index[w] < lowv {
					lowv = index[w]
				}
			}
			if descended {
				continue
			}
			low[v] = lowv
			// Finished v: pop the DFS frame, propagate lowlink, maybe
			// close a component.
			callNode = callNode[:len(callNode)-1]
			callEdge = callEdge[:len(callEdge)-1]
			if len(callNode) > 0 {
				parent := callNode[len(callNode)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(slab)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(members)
					slab = append(slab, w)
					if w == v {
						break
					}
				}
				ms := slab[start:len(slab):len(slab)]
				if len(ms) > maxSize {
					maxSize = len(ms)
				}
				members = append(members, ms)
			}
		}
	}
	s.stack, s.callNode, s.callEdge = stack[:0], callNode[:0], callEdge[:0]
	// graph.scc.max_size tracks the largest SCC across EVERY SCC
	// computation in the process — hb1 graphs and augmented-graph
	// overlays alike. The per-analysis augmented-graph-only
	// view is detect.scc.max_size (see core.flushTelemetry).
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Gauge("graph.scc.max_size").SetMax(int64(maxSize))
	}
	return &SCC{Comp: comp, Members: members, maxSize: maxSize}
}

// CondensationOverlay builds the condensation DAG of the overlay graph
// g ⊕ extra (see StronglyConnectedOverlay) under the given component
// assignment. Cross edges are deduplicated by sorting packed (c1,c2)
// keys — no per-edge map — and the key buffer comes from s when non-nil.
// The returned DAG is freshly allocated and survives scratch reuse.
func CondensationOverlay(g *Digraph, extra [][]int32, scc *SCC, s *Scratch) *Digraph {
	k := scc.NumComponents()
	dag := New(k)
	var keys []uint64
	if s != nil {
		keys = s.keys[:0]
	}
	for u, a := range g.adj {
		cu := scc.Comp[u]
		for _, v := range a {
			if cv := scc.Comp[v]; cu != cv {
				keys = append(keys, uint64(cu)<<32|uint64(cv))
			}
		}
		if extra != nil {
			for _, v := range extra[u] {
				if cv := scc.Comp[v]; cu != cv {
					keys = append(keys, uint64(cu)<<32|uint64(cv))
				}
			}
		}
	}
	slices.Sort(keys)
	prev := uint64(1)<<63 | 1<<31 // component ids are < 2³¹, so this never collides
	for _, key := range keys {
		if key == prev {
			continue
		}
		prev = key
		dag.AddEdge(int(key>>32), int(key&0xffffffff))
	}
	if s != nil {
		s.keys = keys[:0]
	}
	return dag
}

// CondReach answers component-level reachability queries on a
// condensation DAG without building its transitive closure: the
// descendant set of a source component is computed by one memoized DFS
// the first time that component is queried. It exists for the partition
// order of Definition 4.1, where only the k data-race components (k ≪ C)
// are ever sources — the full closure pays for C rows to serve k.
// Queries are safe for concurrent use.
type CondReach struct {
	scc  *SCC
	dag  *Digraph
	rows []atomic.Pointer[bitset.Set]
}

// NewCondReach wraps a condensation DAG (components numbered in reverse
// topological order, as StronglyConnectedOverlay produces) for memoized
// reachability queries. No closure work happens until the first query.
func NewCondReach(dag *Digraph, scc *SCC) *CondReach {
	return &CondReach{scc: scc, dag: dag, rows: make([]atomic.Pointer[bitset.Set], dag.N())}
}

// ComponentReaches reports whether component c1 reaches c2 in the DAG.
func (r *CondReach) ComponentReaches(c1, c2 int) bool {
	if c1 == c2 {
		return true
	}
	if c1 < c2 {
		// Reverse-topological numbering: edges only go to lower ids.
		return false
	}
	row := r.rows[c1].Load()
	if row == nil {
		row = r.materialize(c1)
	}
	return row.Contains(c2)
}

// Reaches reports whether node u reaches node v in the underlying graph.
func (r *CondReach) Reaches(u, v int) bool {
	return r.ComponentReaches(r.scc.Comp[u], r.scc.Comp[v])
}

// materialize runs one DFS from c, reusing any descendant rows already
// built, and publishes the descendant set by compare-and-swap: a row is
// stored only once fully built, its content is a pure function of the
// DAG (the unique descendant set of c), and every query after
// publication is one atomic load. Concurrent queriers may duplicate a
// DFS; whichever row publishes first wins and the duplicates are
// discarded, so the published rows are identical for any schedule.
func (r *CondReach) materialize(c int) *bitset.Set {
	row := bitset.New(r.dag.N())
	row.Add(c)
	stack := []int{c}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range r.dag.Succ(u) {
			if row.Contains(v) {
				continue
			}
			if rv := r.rows[v].Load(); rv != nil {
				row.Union(rv)
				continue
			}
			row.Add(v)
			stack = append(stack, v)
		}
	}
	if !r.rows[c].CompareAndSwap(nil, row) {
		return r.rows[c].Load() // lost the publication race; reuse the winner
	}
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("graph.condreach.rows_built").Inc()
	}
	return row
}
