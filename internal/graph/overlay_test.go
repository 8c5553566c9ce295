package graph

import (
	"math/rand"
	"testing"
)

// randomOverlay draws a sparse extra-adjacency for a graph of n nodes —
// the shape of core's race-partner lists.
func randomOverlay(rng *rand.Rand, n int, p float64) [][]int32 {
	extra := make([][]int32, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				extra[u] = append(extra[u], int32(v))
			}
		}
	}
	return extra
}

// explicitUnion materializes g ⊕ extra as one plain digraph.
func explicitUnion(g *Digraph, extra [][]int32) *Digraph {
	u := New(g.N())
	for from := 0; from < g.N(); from++ {
		for _, to := range g.Succ(from) {
			u.AddEdge(from, to)
		}
		for _, to := range extra[from] {
			u.AddEdge(from, int(to))
		}
	}
	return u
}

// The overlay Tarjan must split the nodes exactly into the classes of
// mutual reachability in the materialized union graph, with and without a
// reused Scratch.
func TestStronglyConnectedOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Float64()*0.2)
		extra := randomOverlay(rng, n, rng.Float64()*0.1)
		reach := bruteClosure(explicitUnion(g, extra))
		got := StronglyConnectedOverlay(g, extra, &s)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (got.Comp[u] == got.Comp[v]) != (reach[u][v] && reach[v][u]) {
					t.Fatalf("trial %d: nodes %d, %d: components %d, %d; mutual reachability %v",
						trial, u, v, got.Comp[u], got.Comp[v], reach[u][v] && reach[v][u])
				}
			}
		}
		// Members must be consistent with Comp.
		for c, members := range got.Members {
			for _, v := range members {
				if got.Comp[v] != c {
					t.Fatalf("trial %d: member %d of comp %d has Comp %d", trial, v, c, got.Comp[v])
				}
			}
		}
	}
}

// CondensationOverlay ⊕ CondReach must answer exactly the reachability
// queries of the materialized union graph, node-level and
// component-level.
func TestCondReachMatchesExplicitReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var s Scratch
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Float64()*0.15)
		extra := randomOverlay(rng, n, rng.Float64()*0.1)
		reach := bruteClosure(explicitUnion(g, extra))

		scc := StronglyConnectedOverlay(g, extra, &s)
		dag := CondensationOverlay(g, extra, scc, &s)
		cr := NewCondReach(dag, scc)

		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := cr.Reaches(u, v), reach[u][v]; got != want {
					t.Fatalf("trial %d: CondReach.Reaches(%d,%d) = %v, want %v", trial, u, v, got, want)
				}
				if got, want := cr.ComponentReaches(scc.Comp[u], scc.Comp[v]), reach[u][v]; got != want {
					t.Fatalf("trial %d: ComponentReaches(%d,%d) = %v, want %v",
						trial, scc.Comp[u], scc.Comp[v], got, want)
				}
			}
		}
	}
}

// The condensation built over the overlay must be acyclic and must carry
// exactly the cross-component edges of the union graph, deduplicated.
func TestCondensationOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Float64()*0.2)
		extra := randomOverlay(rng, n, rng.Float64()*0.1)
		union := explicitUnion(g, extra)

		scc := StronglyConnectedOverlay(g, extra, nil)
		dag := CondensationOverlay(g, extra, scc, nil)
		if err := checkCondensationOrder(dag); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := map[[2]int]bool{}
		for u := 0; u < n; u++ {
			for _, v := range union.Succ(u) {
				if cu, cv := scc.Comp[u], scc.Comp[v]; cu != cv {
					want[[2]int{cu, cv}] = true
				}
			}
		}
		got := map[[2]int]bool{}
		for cu := 0; cu < dag.N(); cu++ {
			for _, cv := range dag.Succ(cu) {
				e := [2]int{cu, cv}
				if got[e] {
					t.Fatalf("trial %d: duplicate condensation edge %v", trial, e)
				}
				got[e] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d condensation edges, want %d", trial, len(got), len(want))
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("trial %d: condensation missing edge %v", trial, e)
			}
		}
	}
}
