package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randStreamGraph builds a stream-structured digraph of the detector's
// hb1 shape: width streams of random lengths chained by po edges, plus
// cross random cross-edges (the so1 analogue). Cross edges may point
// backward, so the graph can contain cycles — exactly the weak-execution
// case (§3.1) the SCC layer of Timestamps exists for.
func randStreamGraph(rng *rand.Rand, width, maxLen, cross int) (g *Digraph, stream, pos []int32) {
	n := 0
	lens := make([]int, width)
	for p := range lens {
		lens[p] = 1 + rng.Intn(maxLen)
		n += lens[p]
	}
	g = New(n)
	stream = make([]int32, n)
	pos = make([]int32, n)
	id := 0
	for p := 0; p < width; p++ {
		for i := 0; i < lens[p]; i++ {
			stream[id] = int32(p)
			pos[id] = int32(i)
			if i > 0 {
				g.AddEdge(id-1, id)
			}
			id++
		}
	}
	for i := 0; i < cross; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g, stream, pos
}

// The timestamp layer must answer every reachability query exactly like
// the brute-force closure, on acyclic and cyclic stream graphs alike.
func TestQuickTimestampsMatchReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		width := 1 + rng.Intn(5)
		g, stream, pos := randStreamGraph(rng, width, 8, rng.Intn(25))
		ts := NewTimestamps(g, stream, pos, width, nil, 1+trial%3)
		reach := bruteClosure(g)
		n := g.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := ts.Reaches(u, v), reach[u][v]; got != want {
					t.Fatalf("trial %d: Reaches(%d,%d) = %v, closure says %v", trial, u, v, got, want)
				}
			}
		}
	}
}

// Window must bracket every (event, stream) pair exactly: the events of
// the stream reaching x form a prefix of length predCount, the events
// reached from x a suffix starting at succPos — verified event by event
// against the closure.
func TestQuickTimestampsWindowMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 150; trial++ {
		width := 1 + rng.Intn(5)
		g, stream, pos := randStreamGraph(rng, width, 8, rng.Intn(25))
		ts := NewTimestamps(g, stream, pos, width, nil, 1+trial%3)
		reach := bruteClosure(g)
		n := g.N()
		// node id of stream p, position i — ids are assigned stream-major.
		node := make([][]int, width)
		for u := 0; u < n; u++ {
			node[stream[u]] = append(node[stream[u]], 0)
		}
		for u := 0; u < n; u++ {
			node[stream[u]][pos[u]] = u
		}
		for u := 0; u < n; u++ {
			for p := 0; p < width; p++ {
				predCount, succPos := ts.Window(u, p)
				for i, v := range node[p] {
					if got, want := i < int(predCount), reach[v][u]; got != want {
						t.Fatalf("trial %d: Window(%d,%d) predCount=%d wrong at pos %d (closure %v)",
							trial, u, p, predCount, i, want)
					}
					if got, want := i >= int(succPos), reach[u][v]; got != want {
						t.Fatalf("trial %d: Window(%d,%d) succPos=%d wrong at pos %d (closure %v)",
							trial, u, p, succPos, i, want)
					}
				}
			}
		}
	}
}

// Epochs and clocks must be mutually consistent: v's clock covers u's
// epoch exactly when u reaches v.
func TestTimestampsEpochClockConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g, stream, pos := randStreamGraph(rng, 4, 10, 20)
	ts := NewTimestamps(g, stream, pos, 4, nil, 1)
	reach := bruteClosure(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			if got, want := ts.EpochOf(u).Covered(ts.VCOf(v)), reach[u][v]; got != want {
				t.Fatalf("EpochOf(%d).Covered(VCOf(%d)) = %v, closure says %v", u, v, got, want)
			}
		}
	}
}

func TestTimestampsSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched stream table")
		}
	}()
	NewTimestamps(New(3), []int32{0, 0}, []int32{0, 1}, 1, nil, 1)
}

// NewWithDegrees must behave exactly like New + AddEdge, including when a
// node receives more edges than its declared degree (the list falls off
// the slab and grows normally).
func TestNewWithDegrees(t *testing.T) {
	g := NewWithDegrees([]int32{2, 0, 1})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 0)
	g.AddEdge(1, 0) // exceeds deg[1] = 0
	g.AddEdge(1, 2) // keeps exceeding
	want := [][]int{{1, 2}, {0, 2}, {0}}
	for u, w := range want {
		got := g.Succ(u)
		if len(got) != len(w) {
			t.Fatalf("Succ(%d) = %v, want %v", u, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("Succ(%d) = %v, want %v", u, got, w)
			}
		}
	}
	if g.M() != 5 {
		t.Fatalf("M() = %d, want 5", g.M())
	}
}

func TestQuickNewWithDegreesMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		type edge struct{ u, v int }
		var edges []edge
		deg := make([]int32, n)
		for i := rng.Intn(40); i > 0; i-- {
			e := edge{rng.Intn(n), rng.Intn(n)}
			edges = append(edges, e)
			deg[e.u]++
		}
		// Undercount some degrees so the overflow path is exercised too.
		for i := range deg {
			if deg[i] > 0 && rng.Intn(4) == 0 {
				deg[i]--
			}
		}
		a, b := New(n), NewWithDegrees(deg)
		for _, e := range edges {
			a.AddEdge(e.u, e.v)
			b.AddEdge(e.u, e.v)
		}
		for u := 0; u < n; u++ {
			sa, sb := a.Succ(u), b.Succ(u)
			if len(sa) != len(sb) {
				t.Fatalf("trial %d: Succ(%d) lengths differ: %v vs %v", trial, u, sa, sb)
			}
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("trial %d: Succ(%d) = %v vs %v", trial, u, sa, sb)
				}
			}
		}
	}
}

// The clock slabs must be byte-identical for every worker count,
// including graphs large enough to cross the parallel-fill cutoff. The
// worker sweep runs under -race in CI, so it also proves the fill's
// writes are disjoint.
func TestQuickTimestampsWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 6; trial++ {
		width := 2 + rng.Intn(5)
		var g *Digraph
		var stream, pos []int32
		for g == nil || g.N() < fillParallelCutoff {
			g, stream, pos = randStreamGraph(rng, width, 4000, 100+rng.Intn(400))
		}
		ref := NewTimestamps(g, stream, pos, width, nil, 1)
		for _, workers := range []int{2, 3, 8} {
			ts := NewTimestamps(g, stream, pos, width, nil, workers)
			if !slices.Equal(ts.fw, ref.fw) || !slices.Equal(ts.bw, ref.bw) {
				t.Fatalf("trial %d: clock slabs differ between workers=1 and workers=%d", trial, workers)
			}
		}
	}
}

// The span skeleton must agree with a dense per-component fold on small
// graphs too — especially cyclic ones, where every SCC member becomes a
// span boundary.
func TestQuickTimestampsSpansMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		width := 1 + rng.Intn(4)
		g, stream, pos := randStreamGraph(rng, width, 12, rng.Intn(30))
		ts := NewTimestamps(g, stream, pos, width, nil, 1)
		fw, bw := denseTimestamps(g, stream, pos, width, ts.scc)
		if !slices.Equal(ts.fw, fw) || !slices.Equal(ts.bw, bw) {
			t.Fatalf("trial %d: span-skeleton slabs differ from dense fold", trial)
		}
	}
}

// denseTimestamps is the pre-span reference: fold and push every
// component row along every cross-component edge, no span derivation.
func denseTimestamps(g *Digraph, stream, pos []int32, width int, scc *SCC) (fw []uint32, bw []int32) {
	k := scc.NumComponents()
	fw = make([]uint32, k*width)
	bw = make([]int32, k*width)
	strLen := make([]int32, width)
	for u := 0; u < g.N(); u++ {
		if l := pos[u] + 1; l > strLen[stream[u]] {
			strLen[stream[u]] = l
		}
	}
	for c := k - 1; c >= 0; c-- {
		row := fw[c*width : (c+1)*width]
		for _, u := range scc.Members[c] {
			if e := uint32(pos[u]) + 1; e > row[stream[u]] {
				row[stream[u]] = e
			}
		}
		for _, u := range scc.Members[c] {
			for _, v := range g.Succ(u) {
				if cv := scc.Comp[v]; cv != c {
					dst := fw[cv*width : (cv+1)*width]
					for i, x := range row {
						if x > dst[i] {
							dst[i] = x
						}
					}
				}
			}
		}
	}
	for c := 0; c < k; c++ {
		row := bw[c*width : (c+1)*width]
		copy(row, strLen)
		for _, u := range scc.Members[c] {
			for _, v := range g.Succ(u) {
				if cv := scc.Comp[v]; cv != c {
					src := bw[cv*width : (cv+1)*width]
					for i, x := range src {
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
	return fw, bw
}
