package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// pmSize is the shape of the postmortem-xl program.
type pmSize struct {
	Segments int
}

// postmortem is the racedetect path on one large trace file: the
// operation turns the file's bytes into the rendered report.
type postmortem struct {
	seed   int64
	size   pmSize
	input  []byte // the encoded trace, as racedetect reads it from disk
	events int
	want   []byte // the report rendered once at Workers: 1
	out    bytes.Buffer

	// Traced-loop detail for layers.
	calls map[string][]float64 // per-layer durations (ms) and allocations (MB)
	// races and dataRaces count the last analysis. The loop keeps only
	// these: holding the analysis itself would keep hundreds of megabytes
	// live through the next operation.
	races, dataRaces int
}

// setup generates RandomWorkload{CPUs 4, Segments, UnlockedFraction 0.3}
// with the benchmark seed as generator seed, simulates it on WO with sim
// seed 1 and encodes the trace. Seed 5 at 4096 segments is the
// 134,331-event XL trace.
func (p *postmortem) setup() error {
	w := workload.Random(workload.RandomParams{
		Seed: p.seed, CPUs: 4, Segments: p.size.Segments, UnlockedFraction: 0.3,
	})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
	if err != nil {
		return err
	}
	tr := trace.FromExecution(r.Exec)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		return err
	}
	p.input, p.events = buf.Bytes(), tr.NumEvents()
	return nil
}

func (p *postmortem) reference() error {
	var buf bytes.Buffer
	if _, err := p.op(&buf, core.Options{Workers: 1}, nil, 0); err != nil {
		return err
	}
	p.want = buf.Bytes()
	return nil
}

// op is one racedetect run: decode the bytes, analyze, render into w.
func (p *postmortem) op(w *bytes.Buffer, opts core.Options, sp *spanLog, id int64) (*core.Analysis, error) {
	parent, end := sp.begin("postmortem.op", 0, id)
	defer end()
	var tr *trace.Trace
	err := p.call(sp, "trace.Decode", "trace.decode", parent, id, func() (err error) {
		tr, err = trace.Decode(bytes.NewReader(p.input))
		return err
	})
	if err != nil {
		return nil, err
	}
	var a *core.Analysis
	err = p.call(sp, "core.Analyze", "core.analyze", parent, id, func() (err error) {
		a, err = core.Analyze(tr, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.Reset()
	err = p.call(sp, "report.RenderAnalysis", "report.render", parent, id, func() error {
		return report.RenderAnalysis(w, a)
	})
	return a, err
}

// call runs f, one layer call of operation id, under a span; in the
// traced loop it also records the call's time and allocation as metric.
func (p *postmortem) call(sp *spanLog, name, metric string, parent, id int64, f func() error) error {
	_, end := sp.begin(name, parent, id)
	defer end()
	if sp == nil {
		return f()
	}
	m0, t0 := readMem(), time.Now()
	err := f()
	d := time.Since(t0)
	alloc, _, _ := readMem().since(m0)
	p.calls[metric+"_ms"] = append(p.calls[metric+"_ms"], float64(d)/1e6)
	p.calls[metric+"_alloc_mb"] = append(p.calls[metric+"_alloc_mb"], float64(alloc)/(1<<20))
	return err
}

// pmTail is op_tail_ms's percentile: a run holds ~25 operations, too few
// for any percentile above the median to keep ten samples beyond it.
const pmTail = 0.5

func (p *postmortem) run(d time.Duration, sp *spanLog) (*loop, error) {
	l := &loop{tail: pmTail}
	var allocMB []float64
	if sp != nil && p.calls == nil {
		p.calls = map[string][]float64{}
	}
	for start := time.Now(); time.Since(start) < d; {
		// core.Analyze takes its scratch arena from a sync.Pool, and the
		// pool survives one collection in its victim cache. Left alone,
		// operations flip between a warm arena (~176 MB, ~350 ms) and a
		// cold one (~657 MB, ~800 ms) depending on when the collector ran.
		// racedetect analyzes one trace per process, so every operation
		// here starts cold, as its users' runs do: two collections empty
		// the pool, outside the timed window. The second one, through
		// FreeOSMemory, also hands the freed heap back to the kernel, so
		// each operation faults its memory in as a fresh process does
		// rather than reusing however much the background scavenger left.
		runtime.GC()
		debug.FreeOSMemory()
		m0, c0 := readMem(), cpuTime()
		t0 := time.Now()
		a, err := p.op(&p.out, core.Options{}, sp, sp.nextOp())
		dur := time.Since(t0)
		l.cpu += cpuTime() - c0
		alloc, gcs, pause := readMem().since(m0)
		l.attempted++
		l.ops = append(l.ops, dur)
		l.gcCycles += gcs
		l.gcPause += pause
		if err != nil || !bytes.Equal(p.out.Bytes(), p.want) {
			l.failed++
			continue
		}
		l.items += float64(p.events)
		l.elapsed += dur
		allocMB = append(allocMB, float64(alloc)/(1<<20))
		p.races, p.dataRaces = len(a.Races), len(a.DataRaces)
	}
	l.allocPerItem = median(allocMB) * (1 << 20) / float64(p.events)
	ms := durationsMS(l.ops)
	l.named = []namedValue{
		{"pm_report_ms", median(ms), "ms", fmt.Sprintf("median of %d ops; p25 %.1f p75 %.1f", len(ms), quantile(ms, 0.25), quantile(ms, 0.75))},
		{"pm_alloc_mb", median(allocMB), "MB", fmt.Sprintf("median of %d ops", len(allocMB))},
		{"pm_events_per_op", float64(p.events), "count", fmt.Sprintf("%d trace bytes", len(p.input))},
	}
	return l, nil
}

// pmPhases maps per-layer metrics to the telemetry phases core.Analyze
// records.
var pmPhases = map[string]string{
	"core.validate_ms":       "detect.validate",
	"core.build_hb_ms":       "detect.build_hb",
	"graph.timestamps_ms":    "graph.timestamps",
	"core.find_races_ms":     "detect.find_races",
	"core.sweep.scan_ms":     "detect.sweep.scan",
	"core.sweep.merge_ms":    "detect.sweep.merge",
	"core.sweep.coalesce_ms": "detect.sweep.coalesce",
	"core.augment_ms":        "detect.augment",
	"core.partition_ms":      "detect.partition",
}

func (p *postmortem) layers(l *loop, sp *spanLog) (map[string]float64, error) {
	vals := map[string]float64{}
	for name, xs := range p.calls {
		vals[name] = median(xs)
	}
	phases := telemetry.Default().Snapshot().Phases
	for name, phase := range pmPhases {
		vals[name] = float64(phases[phase].TotalNS) / 1e6 / float64(max(l.attempted, 1))
	}
	vals["core.events"] = float64(p.events)
	vals["core.races"] = float64(p.races)
	vals["core.data_races"] = float64(p.dataRaces)
	if p.races > 0 {
		vals["core.data_race_ratio"] = float64(p.dataRaces) / float64(p.races)
	}
	return vals, nil
}

func (p *postmortem) close() error { return nil }
