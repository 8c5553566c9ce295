package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// line returns the path graph 0→1→…→n-1.
func line(n int) *Digraph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycle returns the cycle graph 0→1→…→n-1→0.
func cycle(n int) *Digraph {
	g := line(n)
	g.AddEdge(n-1, 0)
	return g
}

// sccOf runs Tarjan over g alone (no overlay).
func sccOf(g *Digraph) *SCC { return StronglyConnectedOverlay(g, nil, nil) }

// condReach builds the production reachability structure for g: Tarjan,
// the condensation, and memoized component reachability over it.
func condReach(g *Digraph) *CondReach {
	scc := sccOf(g)
	return NewCondReach(CondensationOverlay(g, nil, scc, nil), scc)
}

// bruteClosure is the reference every reachability test compares
// against: reach[u][v] reports a (possibly empty) path u⇝v, found by one
// depth-first search per node over g.Succ.
func bruteClosure(g *Digraph) [][]bool {
	reach := make([][]bool, g.N())
	for u := range reach {
		reach[u] = make([]bool, g.N())
		reach[u][u] = true
		stack := []int{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range g.Succ(x) {
				if !reach[u][y] {
					reach[u][y] = true
					stack = append(stack, y)
				}
			}
		}
	}
	return reach
}

// checkCondensationOrder reports an edge of dag that does not go from a
// higher component id to a lower one. Tarjan numbers components in
// reverse topological order, so such an edge would also be the only way
// the condensation could contain a cycle.
func checkCondensationOrder(dag *Digraph) error {
	for cu := 0; cu < dag.N(); cu++ {
		for _, cv := range dag.Succ(cu) {
			if cv >= cu {
				return fmt.Errorf("condensation edge %d→%d does not descend", cu, cv)
			}
		}
	}
	return nil
}

func TestBasicAccessors(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("N,M = %d,%d; want 3,0", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // parallel edge allowed
	g.AddEdge(0, 2)
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if s := g.Succ(0); len(s) != 3 || s[0] != 1 || s[1] != 1 || s[2] != 2 {
		t.Fatalf("Succ(0) = %v, want [1 1 2]", s)
	}
	if len(g.Succ(1)) != 0 {
		t.Fatalf("Succ(1) = %v, want none", g.Succ(1))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestSCCLine(t *testing.T) {
	scc := sccOf(line(4))
	if scc.NumComponents() != 4 {
		t.Fatalf("components = %d, want 4", scc.NumComponents())
	}
	// Tarjan numbering is reverse topological: node 3 gets component 0.
	for i := 0; i < 4; i++ {
		if scc.Comp[i] != 3-i {
			t.Fatalf("Comp[%d] = %d, want %d", i, scc.Comp[i], 3-i)
		}
	}
}

func TestSCCCycle(t *testing.T) {
	scc := sccOf(cycle(5))
	if scc.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", scc.NumComponents())
	}
	for u := 0; u < 5; u++ {
		if scc.Comp[u] != scc.Comp[0] {
			t.Fatalf("nodes 0 and %d not in same component", u)
		}
	}
	if len(scc.Members[0]) != 5 || scc.MaxSize() != 5 {
		t.Fatalf("Members[0] = %v, MaxSize %d", scc.Members[0], scc.MaxSize())
	}
}

func TestSCCTwoCyclesBridge(t *testing.T) {
	// 0↔1 → 2↔3, plus isolated 4.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	scc := sccOf(g)
	if scc.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3", scc.NumComponents())
	}
	c := scc.Comp
	if c[0] != c[1] || c[2] != c[3] || c[1] == c[2] || c[4] == c[0] {
		t.Fatalf("component assignment wrong: %v", c)
	}
	// Reverse topological numbering: {2,3} must be numbered before {0,1}.
	if c[2] >= c[0] {
		t.Fatalf("condensation numbering not reverse-topological: %v", c)
	}
}

func TestCondensation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate cross edge must collapse
	g.AddEdge(2, 3)
	scc := sccOf(g)
	dag := CondensationOverlay(g, nil, scc, nil)
	if dag.N() != 3 {
		t.Fatalf("condensation nodes = %d, want 3", dag.N())
	}
	if dag.M() != 2 {
		t.Fatalf("condensation edges = %d, want 2 (duplicates collapsed)", dag.M())
	}
	if err := checkCondensationOrder(dag); err != nil {
		t.Fatal(err)
	}
}

func TestReachabilityLine(t *testing.T) {
	r := condReach(line(4))
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			want := u <= v
			if got := r.Reaches(u, v); got != want {
				t.Fatalf("Reaches(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestReachabilityDiamondUnordered(t *testing.T) {
	// 0→1, 0→2, 1→3, 2→3: 1 and 2 are unordered (a "race" shape).
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	r := condReach(g)
	if r.Reaches(1, 2) || r.Reaches(2, 1) {
		t.Fatal("diamond arms reported ordered")
	}
	if !r.Reaches(0, 3) {
		t.Fatal("0 should reach 3")
	}
}

func TestReachabilityWithCycle(t *testing.T) {
	// 0→1→2→1 (cycle {1,2}), 2→3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	r := condReach(g)
	if !r.Reaches(1, 1) || !r.Reaches(2, 1) || !r.Reaches(1, 3) {
		t.Fatal("cycle reachability wrong")
	}
	if r.Reaches(3, 0) {
		t.Fatal("3 should not reach 0")
	}
}

func TestComponentReaches(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // comp A
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2) // comp B
	scc := sccOf(g)
	r := NewCondReach(CondensationOverlay(g, nil, scc, nil), scc)
	ca, cb := scc.Comp[0], scc.Comp[2]
	if !r.ComponentReaches(ca, cb) {
		t.Fatal("component A should reach component B")
	}
	if r.ComponentReaches(cb, ca) {
		t.Fatal("component B should not reach component A")
	}
}

// randomGraph builds a digraph with n nodes, edge probability p.
func randomGraph(rng *rand.Rand, n int, p float64) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Property: condensation reachability matches the brute-force closure on
// random graphs, cycles included.
func TestQuickReachabilityMatchesDFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.12)
		r := condReach(g)
		reach := bruteClosure(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if r.Reaches(u, v) != reach[u][v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent queries against one CondReach must agree with the
// brute-force closure — run under -race this exercises the
// compare-and-swap row publication that makes Affects safe to call from
// several goroutines.
func TestLazyReachabilityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 60
	g := randomGraph(rng, n, 0.08)
	reach := bruteClosure(g)
	r := condReach(g)
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the query space from a different offset so
			// row materializations collide.
			for i := 0; i < n*n; i++ {
				q := (i + w*n*n/8) % (n * n)
				u, v := q/n, q%n
				if r.Reaches(u, v) != reach[u][v] {
					select {
					case errc <- fmt.Sprintf("Reaches(%d, %d) mismatch", u, v):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
}

// Property: SCC partition is consistent with mutual reachability.
func TestQuickSCCMutualReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.15)
		scc := sccOf(g)
		reach := bruteClosure(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (scc.Comp[u] == scc.Comp[v]) != (reach[u][v] && reach[v][u]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every SCC numbering is reverse-topological over the condensation.
func TestQuickSCCNumberingReverseTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.15)
		scc := sccOf(g)
		for u := 0; u < n; u++ {
			for _, v := range g.Succ(u) {
				if scc.Comp[u] != scc.Comp[v] && scc.Comp[u] < scc.Comp[v] {
					return false // cross edge must go to a lower id
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCDeepRecursionSafe(t *testing.T) {
	// A 200k-node path would overflow a recursive Tarjan; the iterative one
	// must handle it.
	const n = 200_000
	g := line(n)
	scc := sccOf(g)
	if scc.NumComponents() != n {
		t.Fatalf("components = %d, want %d", scc.NumComponents(), n)
	}
}

func BenchmarkSCCRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 2000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sccOf(g)
	}
}
