package crosscheck

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/litmus"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// oracle is the definition-level reference analysis: §2's hb1 and races
// and §4's augmented graph, partitions and partition order, written
// straight from the definitions with no shared code and no cleverness.
// Every relation is an explicit quadratic table; it is meant for traces
// of a few hundred events.
type oracle struct {
	n      int
	events []*trace.Event // by dense processor-major id
	hb     [][]bool       // hb[u][v]: u ⇝ v over po ∪ so1, reflexive
	races  []oracleRace
	aug    [][]bool // aug[u][v]: u ⇝ v in G′ = hb1 plus a two-way edge per race
	comp   []int    // Tarjan SCC of G′ per event
	parts  []oraclePart
}

type oracleRace struct {
	a, b int
	locs []int
	data bool
}

type oraclePart struct {
	events []int
	races  [][2]int // (A, B) of its data races, ascending
	first  bool
}

// accessSets returns an event's read and write locations. A
// synchronization event accesses only its location: it writes it when it
// is a write synchronization, and reads it otherwise.
func accessSets(ev *trace.Event) (reads, writes []int) {
	if ev.Kind == trace.Sync {
		if ev.IsWriteSync() {
			return nil, []int{int(ev.Loc)}
		}
		return []int{int(ev.Loc)}, nil
	}
	return ev.Reads.Slice(), ev.Writes.Slice()
}

// closure returns the reflexive transitive closure of adjacency adj by
// one breadth-first search per node.
func closure(adj [][]int) [][]bool {
	reach := make([][]bool, len(adj))
	for u := range adj {
		reach[u] = make([]bool, len(adj))
		reach[u][u] = true
		queue := []int{u}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if !reach[u][y] {
					reach[u][y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	return reach
}

func newOracle(t *trace.Trace, pairing memmodel.PairingPolicy) *oracle {
	o := &oracle{}
	base := make([]int, t.NumCPUs)
	for c, evs := range t.PerCPU {
		base[c] = len(o.events)
		o.events = append(o.events, evs...)
	}
	o.n = len(o.events)

	// hb1 (Definitions 2.2–2.3): po between consecutive events of one
	// processor, so1 from a paired release to the acquire that read it.
	adj := make([][]int, o.n)
	for c, evs := range t.PerCPU {
		for i, ev := range evs {
			u := base[c] + i
			if i+1 < len(evs) {
				adj[u] = append(adj[u], u+1)
			}
			if ev.Kind == trace.Sync && ev.Role == memmodel.RoleAcquire &&
				ev.Observed.Valid() && pairing.CanPair(ev.ObservedRole) {
				w := base[ev.Observed.CPU] + ev.Observed.Index
				adj[w] = append(adj[w], u)
			}
		}
	}
	o.hb = closure(adj)

	// Races (Definition 2.4 on events, §4.1): every pair that conflicts
	// on some location and is ordered by hb1 in neither direction.
	for u := 0; u < o.n; u++ {
		ru, wu := accessSets(o.events[u])
		for v := u + 1; v < o.n; v++ {
			if o.hb[u][v] || o.hb[v][u] {
				continue
			}
			rv, wv := accessSets(o.events[v])
			var locs []int
			for _, l := range wu {
				if slices.Contains(wv, l) || slices.Contains(rv, l) {
					locs = append(locs, l)
				}
			}
			for _, l := range wv {
				if slices.Contains(ru, l) && !slices.Contains(locs, l) {
					locs = append(locs, l)
				}
			}
			if len(locs) == 0 {
				continue
			}
			slices.Sort(locs)
			data := o.events[u].Kind == trace.Comp || o.events[v].Kind == trace.Comp
			o.races = append(o.races, oracleRace{a: u, b: v, locs: locs, data: data})
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}

	// G′ (§4.2): hb1 plus one doubly-directed edge per race, split into
	// strongly connected components by Tarjan's algorithm.
	o.aug = closure(adj)
	o.comp = tarjan(adj)

	// Partitions: the data races grouped by the component of G′ their
	// events share, ordered by smallest event; P (Definition 4.1) is
	// reachability in G′ between any two of their events.
	byComp := map[int]*oraclePart{}
	for _, r := range o.races {
		if !r.data {
			continue
		}
		p := byComp[o.comp[r.a]]
		if p == nil {
			p = &oraclePart{}
			byComp[o.comp[r.a]] = p
		}
		p.races = append(p.races, [2]int{r.a, r.b})
		for _, e := range []int{r.a, r.b} {
			if !slices.Contains(p.events, e) {
				p.events = append(p.events, e)
			}
		}
	}
	for _, p := range byComp {
		slices.Sort(p.events)
		o.parts = append(o.parts, *p)
	}
	slices.SortFunc(o.parts, func(x, y oraclePart) int { return x.events[0] - y.events[0] })
	for i := range o.parts {
		o.parts[i].first = true
		for j := range o.parts {
			if i != j && o.reaches(o.parts[j].events, o.parts[i].events) {
				o.parts[i].first = false
			}
		}
	}
	return o
}

// reaches reports whether some event of from reaches some event of to in G′.
func (o *oracle) reaches(from, to []int) bool {
	for _, u := range from {
		for _, v := range to {
			if o.aug[u][v] {
				return true
			}
		}
	}
	return false
}

// tarjan labels every node of adj with its strongly connected component.
func tarjan(adj [][]int) []int {
	n := len(adj)
	index, low, comp := make([]int, n), make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	var stack []int
	next, ncomp := 0, 0
	var visit func(u int)
	visit = func(u int) {
		index[u], low[u] = next, next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range adj[u] {
			if index[v] < 0 {
				visit(v)
				low[u] = min(low[u], low[v])
			} else if onStack[v] {
				low[u] = min(low[u], index[v])
			}
		}
		if low[u] == index[u] {
			for {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[v] = false
				comp[v] = ncomp
				if v == u {
					break
				}
			}
			ncomp++
		}
	}
	for u := 0; u < n; u++ {
		if index[u] < 0 {
			visit(u)
		}
	}
	return comp
}

// checkAgainstOracle compares an analysis with the oracle on everything
// the analysis reports: data races with their locations, the sync-race
// count and pairs, partitions as event sets with their races and First
// flags, the first-partition list, the affects relation on every pair of
// data races, and Theorem 4.1.
func checkAgainstOracle(a *core.Analysis, o *oracle) error {
	var data, sync []oracleRace
	for _, r := range o.races {
		if r.data {
			data = append(data, r)
		} else {
			sync = append(sync, r)
		}
	}
	render := func(rs []oracleRace) string {
		var b bytes.Buffer
		for _, r := range rs {
			fmt.Fprintf(&b, "⟨%d,%d⟩%v ", r.a, r.b, r.locs)
		}
		return b.String()
	}
	var gotData, gotSync []oracleRace
	for _, r := range a.Races {
		gotData = append(gotData, oracleRace{a: int(r.A), b: int(r.B), locs: r.Locs.Slice(), data: r.Data})
	}
	a.ForEachSyncRace(func(r core.Race) bool {
		gotSync = append(gotSync, oracleRace{a: int(r.A), b: int(r.B), locs: r.Locs.Slice(), data: r.Data})
		return true
	})
	if got, want := render(gotData), render(data); got != want || !allData(gotData, true) {
		return fmt.Errorf("data races:\n got %s\nwant %s", got, want)
	}
	if got, want := render(gotSync), render(sync); got != want || !allData(gotSync, false) {
		return fmt.Errorf("ForEachSyncRace:\n got %s\nwant %s", got, want)
	}
	if a.SyncRaces != int64(len(sync)) || a.NumRaces() != int64(len(o.races)) {
		return fmt.Errorf("SyncRaces %d, NumRaces %d; oracle %d sync of %d", a.SyncRaces, a.NumRaces(), len(sync), len(o.races))
	}
	if len(a.DataRaces) != len(a.Races) {
		return fmt.Errorf("DataRaces has %d entries for %d data races", len(a.DataRaces), len(a.Races))
	}
	for i, ri := range a.DataRaces {
		if ri != i {
			return fmt.Errorf("DataRaces[%d] = %d, want the identity index", i, ri)
		}
	}

	if len(a.Partitions) != len(o.parts) {
		return fmt.Errorf("%d partitions, oracle %d", len(a.Partitions), len(o.parts))
	}
	var wantFirst []int
	for i, p := range a.Partitions {
		op := o.parts[i]
		events := make([]int, len(p.Events))
		for k, e := range p.Events {
			events[k] = int(e)
		}
		races := make([][2]int, len(p.Races))
		for k, ri := range p.Races {
			races[k] = [2]int{int(a.Races[ri].A), int(a.Races[ri].B)}
		}
		if !slices.Equal(events, op.events) || !slices.Equal(races, op.races) || p.First != op.first {
			return fmt.Errorf("partition %d: events %v races %v first %v; oracle events %v races %v first %v",
				i, events, races, p.First, op.events, op.races, op.first)
		}
		if op.first {
			wantFirst = append(wantFirst, i)
		}
	}
	if !slices.Equal(a.FirstPartitions, wantFirst) {
		return fmt.Errorf("FirstPartitions %v, oracle %v", a.FirstPartitions, wantFirst)
	}
	for i, x := range a.Races {
		for j, y := range a.Races {
			want := o.reaches([]int{int(x.A), int(x.B)}, []int{int(y.A), int(y.B)})
			if got := a.Affects(i, j); got != want {
				return fmt.Errorf("Affects(⟨%d,%d⟩, ⟨%d,%d⟩) = %v, oracle %v", x.A, x.B, y.A, y.B, got, want)
			}
		}
	}
	// Theorem 4.1: no first partitions iff no data races.
	if (len(a.FirstPartitions) == 0) != (len(data) == 0) {
		return fmt.Errorf("Theorem 4.1: %d first partitions, %d data races", len(a.FirstPartitions), len(data))
	}
	return nil
}

func allData(rs []oracleRace, want bool) bool {
	for _, r := range rs {
		if r.data != want {
			return false
		}
	}
	return true
}

// oracleModels are the models fuzz inputs choose from.
var oracleModels = []memmodel.Model{memmodel.SC, memmodel.WO, memmodel.RCsc, memmodel.DRF0, memmodel.DRF1, memmodel.TSO}

// maxOracleEvents bounds the traces the fuzzer hands the quadratic oracle.
const maxOracleEvents = 400

// fuzzTrace turns a fuzz input into a trace. kind picks the source: a
// small random workload or a litmus test, simulated with seed on a model
// and with parameters read from data, or data itself decoded as a binary
// trace. Inputs that yield no trace, or one too large for the oracle,
// return nil.
func fuzzTrace(kind byte, seed int64, data []byte) *trace.Trace {
	param := func(i, lo, span int) int {
		if i < len(data) {
			return lo + int(data[i])%span
		}
		return lo
	}
	model := oracleModels[param(0, 0, len(oracleModels))]
	var w *workload.Workload
	switch kind % 3 {
	case 0:
		p := workload.RandomParams{
			Seed:          seed,
			CPUs:          param(1, 2, 3),
			Segments:      param(2, 1, 5),
			OpsPerSegment: param(3, 1, 4),
			Locks:         param(4, 1, 2),
			SharedLocs:    param(5, 1, 6),
		}
		if param(6, 0, 2) == 1 {
			p.UnlockedFraction = float64(param(7, 0, 10)) / 10
			p.SharedFraction = float64(param(8, 0, 10)) / 10
		}
		w = workload.Random(p)
	case 1:
		cat := litmus.Catalog()
		w = cat[param(1, 0, len(cat))].Workload
	default:
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil || tr.NumEvents() > maxOracleEvents {
			return nil
		}
		return tr
	}
	r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
	if err != nil {
		return nil
	}
	tr := trace.FromExecution(r.Exec)
	if tr.NumEvents() > maxOracleEvents {
		return nil
	}
	return tr
}

// FuzzAnalyzeVsOracle checks core.Analyze against the definition-level
// oracle on small random, litmus, and decoded traces, under both pairing
// policies, at Workers 1 and 3, on the default path and on the explicit
// closure and explicit G′ paths. The traces stay below the sweep's
// parallel cutoff, so the race sweep runs sequentially even at Workers 3
// (only partition ordering fans out); the sharded scan and the fold of
// partner proposals from several shards are pinned by TestParityGolden.
func FuzzAnalyzeVsOracle(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(byte(0), seed, []byte{byte(seed), 3, 4, 3, 1, 3, 1, 4, 7})
		f.Add(byte(1), seed, []byte{byte(seed), byte(seed)})
	}
	for i, w := range []*workload.Workload{workload.Figure1a(), workload.Figure1b(), workload.Figure2()} {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 674, InitMemory: w.InitMemory})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, trace.FromExecution(r.Exec)); err != nil {
			f.Fatal(err)
		}
		f.Add(byte(2), int64(i), buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, kind byte, seed int64, data []byte) {
		tr := fuzzTrace(kind, seed, data)
		if tr == nil || tr.Validate() != nil {
			return
		}
		var flags [8]byte
		binary.LittleEndian.PutUint64(flags[:], uint64(seed))
		pairing := memmodel.PairingPolicy(flags[7] % 2)
		o := newOracle(tr, pairing)
		for _, opts := range []core.Options{
			{Pairing: pairing, Workers: 1},
			{Pairing: pairing, Workers: 3},
			{Pairing: pairing, ExplicitClosure: flags[6]%2 == 0, ExplicitAug: flags[6]%2 == 1},
		} {
			a, err := core.Analyze(tr, opts)
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			if err := checkAgainstOracle(a, o); err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
		}
	})
}

// TestAnalyzeVsOracleCorpus runs the oracle over the frozen 60-trace
// corpus and every litmus test on every model, so the definition-level
// check runs in the ordinary test suite, not only under -fuzz. As in the
// fuzz target, the race sweep itself runs sequentially at both worker
// counts.
func TestAnalyzeVsOracleCorpus(t *testing.T) {
	var traces []*trace.Trace
	for _, c := range workload.Corpus(60, 1) {
		r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, trace.FromExecution(r.Exec))
	}
	for _, lt := range litmus.Catalog() {
		for i, m := range oracleModels {
			w := lt.Workload
			r, err := sim.Run(w.Prog, sim.Config{Model: m, Seed: int64(i), InitMemory: w.InitMemory})
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, trace.FromExecution(r.Exec))
		}
	}
	for i, tr := range traces {
		for _, pairing := range []memmodel.PairingPolicy{memmodel.ConservativePairing, memmodel.LiberalPairing} {
			o := newOracle(tr, pairing)
			for _, w := range []int{1, 3} {
				a, err := core.Analyze(tr, core.Options{Pairing: pairing, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if err := checkAgainstOracle(a, o); err != nil {
					t.Fatalf("trace %d (%s), %v pairing, Workers=%d: %v", i, tr.ProgramName, pairing, w, err)
				}
			}
		}
	}
}
