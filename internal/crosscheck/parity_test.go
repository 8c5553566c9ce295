package crosscheck

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"weakrace/internal/bitset"
	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity.golden from the current analyzer")

const parityGolden = "testdata/parity.golden"

// parityWorkers are the worker counts every parity trace is analyzed at;
// each must reproduce the golden digest.
var parityWorkers = []int{1, 2, 3, 8}

// parityDigest hashes everything a user or a downstream phase can see of
// an analysis, in a form that does not depend on how Races is indexed:
// the rendered report, the total race count, the data races as
// (A, B, Locs), the G′ component of every event, the partitions (with
// their races named by event pair) and the first-partition list.
func parityDigest(t *testing.T, a *core.Analysis) string {
	t.Helper()
	h := sha256.New()
	var rep bytes.Buffer
	if err := report.RenderAnalysis(&rep, a); err != nil {
		t.Fatal(err)
	}
	h.Write(rep.Bytes())
	fmt.Fprintf(h, "\nraces %d\n", a.NumRaces())
	for _, r := range a.Races {
		fmt.Fprintf(h, "%d %d %s\n", r.A, r.B, r.Locs)
	}
	comp := make([]byte, 4*len(a.AugSCC.Comp))
	for i, c := range a.AugSCC.Comp {
		binary.LittleEndian.PutUint32(comp[4*i:], uint32(c))
	}
	h.Write(comp)
	for _, p := range a.Partitions {
		fmt.Fprintf(h, "\npartition comp=%d first=%v events=%v races=", p.Component, p.First, p.Events)
		for _, ri := range p.Races {
			fmt.Fprintf(h, "(%d,%d)", a.Races[ri].A, a.Races[ri].B)
		}
	}
	fmt.Fprintf(h, "\nfirst %v\n", a.FirstPartitions)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// allRacesDigest hashes every race, data and synchronization, in (A, B)
// order with its locations and data flag: the race list the analyzer
// materialized before sync–sync races became a count, rebuilt here from
// core's ForEachRace.
func allRacesDigest(a *core.Analysis) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	// Races on one location share one set; render each set once.
	locs := map[*bitset.Set]string{}
	var line []byte
	a.ForEachRace(func(r core.Race) bool {
		l, ok := locs[r.Locs]
		if !ok {
			l = r.Locs.String()
			locs[r.Locs] = l
		}
		line = strconv.AppendInt(line[:0], int64(r.A), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.B), 10)
		line = append(line, ' ')
		line = append(line, l...)
		line = append(line, ' ')
		line = strconv.AppendBool(line, r.Data)
		line = append(line, '\n')
		w.Write(line)
		return true
	})
	w.Flush()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// parityTrace is one named trace of the parity set.
type parityTrace struct {
	name string
	tr   *trace.Trace
}

// parityTraces is the frozen 60-trace corpus plus, outside -short, the
// 134,331-event XL trace: RandomWorkload seed 5 (4 CPUs, 4096 segments,
// 30% unlocked) on WO with scheduler seed 1.
func parityTraces(t *testing.T) []parityTrace {
	t.Helper()
	var out []parityTrace
	for i, c := range workload.Corpus(60, 1) {
		r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parityTrace{fmt.Sprintf("corpus-%02d", i), trace.FromExecution(r.Exec)})
	}
	if !testing.Short() {
		w := workload.Random(workload.RandomParams{Seed: 5, CPUs: 4, Segments: 4096, UnlockedFraction: 0.3})
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parityTrace{"xl-seg4096", trace.FromExecution(r.Exec)})
	}
	return out
}

func readParityGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(parityGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digests, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", parityGolden, line)
		}
		want[name] = digests
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestParityGolden pins the analyzer's visible output on the corpus and
// the XL trace to digests recorded before the output-sensitive sweep
// replaced the full race enumeration: every worker count must reproduce
// them, and ForEachSyncRace merged with Races must reproduce the full
// race list of that time. Regenerate with -update-parity only for an
// intended output change.
func TestParityGolden(t *testing.T) {
	traces := parityTraces(t)
	if *updateParity {
		var buf bytes.Buffer
		buf.WriteString("# name sha256(report, race count, data races, G' components, partitions, first partitions) sha256(every race in (A, B) order, with Locs and Data)\n")
		for _, pt := range traces {
			a, err := core.Analyze(pt.tr, core.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s %s %s\n", pt.name, parityDigest(t, a), allRacesDigest(a))
		}
		if err := os.MkdirAll(filepath.Dir(parityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readParityGolden(t)
	for _, pt := range traces {
		d, ok := want[pt.name]
		if !ok {
			t.Fatalf("%s: no golden digest", pt.name)
		}
		for _, w := range parityWorkers {
			a, err := core.Analyze(pt.tr, core.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got := parityDigest(t, a) + " " + allRacesDigest(a); got != d {
				t.Errorf("%s at Workers=%d: digests %s, golden %s", pt.name, w, got, d)
			}
		}
	}
}
