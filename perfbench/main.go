// Command perfbench is weakrace's repository benchmark. It drives the
// three end-to-end paths of the detector in-process, from the public
// functions of each module, on inputs generated from a seed:
//
//	postmortem-xl  trace bytes → trace.Decode → core.Analyze → report.RenderAnalysis
//	stream-exact   stream.Send → WRS1 → stream.Serve → onthefly.Detector
//	campaign       campaign.Run → sim.Run → trace.FromExecutionInto → core.Analyze
//
// Usage:
//
//	perfbench --workload postmortem-xl --seed 5 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics of
// a separate traced run, which also writes its spans as a Chrome trace
// file. The lines before it are a human-readable report: host metadata,
// the calibration loop, and each workload's metrics under their own
// names. README.md holds the metric dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"weakrace/internal/telemetry"
)

// metricDef is one metric the benchmark reports, with its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of the untraced run. Every workload reports
// every one of them; what an operation and an item are depends on the
// workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"items_per_s", "1/s"},
	{"cpu_us_per_item", "us"},
	{"alloc_b_per_item", "B"},
}

// perLayer lists the metrics of the traced run. A workload reports 0 for
// a layer it does not call.
var perLayer = []metricDef{
	// postmortem-xl: one layer call per operation, medians over operations.
	{"trace.decode_ms", "ms"},
	{"trace.decode_alloc_mb", "MB"},
	{"core.analyze_ms", "ms"},
	{"core.analyze_alloc_mb", "MB"},
	{"report.render_ms", "ms"},
	{"report.render_alloc_mb", "MB"},
	// postmortem-xl: the program's own telemetry phases, mean per operation.
	{"core.validate_ms", "ms"},
	{"core.build_hb_ms", "ms"},
	{"graph.timestamps_ms", "ms"},
	{"core.find_races_ms", "ms"},
	{"core.sweep.scan_ms", "ms"},
	{"core.sweep.merge_ms", "ms"},
	{"core.sweep.coalesce_ms", "ms"},
	{"core.augment_ms", "ms"},
	{"core.partition_ms", "ms"},
	{"core.events", "count"},
	{"core.races", "count"},
	{"core.data_races", "count"},
	{"core.data_race_ratio", "ratio"},
	// stream-exact: serial replay of the executions, per event.
	{"trace.stream_encode_ns_per_event", "ns"},
	{"trace.stream_decode_ns_per_event", "ns"},
	{"onthefly.feed_ns_per_event", "ns"},
	{"onthefly.comparisons_per_event", "count"},
	{"onthefly.peak_live_accesses", "count"},
	// stream-exact: the server's batch histograms and stream summaries.
	{"stream.batch_wait_p50_us", "us"},
	{"stream.batch_wait_p99_us", "us"},
	{"stream.batch_feed_p50_us", "us"},
	{"stream.batch_feed_p99_us", "us"},
	{"stream.queue_high_water", "count"},
	{"stream.self_ms_p50", "ms"},
	// campaign: serial replay of a seed subset, mean per seed.
	{"sim.run_us", "us"},
	{"sim.ops_per_seed", "count"},
	{"trace.from_execution_us", "us"},
	{"core.analyze_small_us", "us"},
	{"core.analyze_small_alloc_kb", "KB"},
	// Every workload.
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.tracing_overhead", "ratio"},
	{"host.calibration_ms", "ms"},
}

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"postmortem-xl", "stream-exact", "campaign"}

// bench is one workload. The runner calls setup several times (the last
// call's inputs are kept), reference once, then run, outside each other's
// timed windows.
type bench interface {
	// setup generates the workload's inputs from its seed.
	setup() error
	// reference computes the outputs every operation is checked against.
	reference() error
	// run drives the operations for about d and checks each output. With
	// a non-nil span log it is the traced loop and keeps what layers needs.
	run(d time.Duration, sp *spanLog) (*loop, error)
	// layers returns the per-layer metrics after a traced run.
	layers(l *loop, sp *spanLog) (map[string]float64, error)
	// close releases what setup or run started.
	close() error
}

// loop is the outcome of one timed loop.
type loop struct {
	attempted, failed int
	// ops holds each operation's duration.
	ops []time.Duration
	// tail is the percentile op_tail_ms reports: the highest that keeps
	// at least ten of a run's operations beyond it.
	tail float64
	// items counts the work items completed: events for postmortem-xl
	// and stream-exact, seeds for campaign. elapsed is the time they are
	// divided by.
	items   float64
	elapsed time.Duration
	// cpu is the process's CPU time (user and system, every thread) over
	// the operations. Unlike elapsed it leaves out time a hypervisor gave
	// the virtual CPUs to other guests.
	cpu time.Duration
	// allocPerItem is the bytes allocated per item.
	allocPerItem float64
	// gcCycles and gcPause are the collections during the operations.
	gcCycles uint64
	gcPause  time.Duration
	// named holds the workload's own metrics, under the names the
	// metric dictionary gives them, for the human-readable report.
	named []namedValue
}

// namedValue is one metric of the human-readable report.
type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

// A run sets its inputs up at least minSetupReps times and until
// setupBudget has passed, at most maxSetupReps times; setup_s is the
// median. Small set-ups repeat more, so their median holds still.
const (
	minSetupReps = 5
	maxSetupReps = 100
	setupBudget  = time.Second
)

// result is what one invocation prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sizes fixes the input size of every workload.
type sizes struct {
	postmortem pmSize
	stream     streamSize
	campaign   campaignSize
}

// fullSize is the benchmark's size; tests use smaller ones.
var fullSize = sizes{
	postmortem: pmSize{Segments: 4096},
	stream:     streamSize{Executions: 96, MinSegments: 16, MaxSegments: 256},
	campaign:   campaignSize{Programs: 128, Seeds: 20, ReplaySeeds: 1},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload: postmortem-xl, stream-exact or campaign")
	fs.Int64Var(&cfg.seed, "seed", 5, "input seed; 5 reproduces the segments-4096 XL trace")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed loop in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for run records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.traced = *traced == 1
	b, err := newBench(cfg.workload, cfg.seed, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer b.close() //nolint:errcheck // the result is already printed or abandoned
	if err := execute(b, cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// newBench returns the named workload at the given size.
func newBench(name string, seed int64, sz sizes) (bench, error) {
	switch name {
	case "postmortem-xl":
		return &postmortem{seed: seed, size: sz.postmortem}, nil
	case "stream-exact":
		return &streamExact{seed: seed, size: sz.stream}, nil
	case "campaign":
		return &campaignBench{seed: seed, size: sz.campaign}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// execute runs one invocation and prints its report and result line.
func execute(b bench, cfg runConfig, stdout io.Writer) error {
	// No workload uses more workers or connections than the host has CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	host := collectHost()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s gogc=%s calibration_ms=%.3f\n",
		host.NProc, host.GOMAXPROCS, host.CPU, host.GoVersion, host.Commit, host.GOGC, host.CalibrationMS)
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)

	setupS, err := timeSetup(b)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := b.reference(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	steal0, total0 := stealTicks()
	var res *result
	var named []namedValue
	if cfg.traced {
		res, named, err = tracedRun(b, cfg, d, host)
	} else {
		var l *loop
		l, err = b.run(d, nil)
		if err == nil {
			res = endToEndResult(l, setupS)
			named = l.named
		}
	}
	if err != nil {
		return err
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		named = append(named, namedValue{
			name: "host_steal_pct", value: 100 * float64(steal1-steal0) / float64(total1-total0), unit: "%",
			note: "CPU time the hypervisor gave other guests during the loop",
		})
	}
	for _, n := range named {
		fmt.Fprintf(stdout, "  %-34s %14.4f %-5s %s\n", n.name, n.value, n.unit, n.note)
	}
	fmt.Fprintf(stdout, "  %-34s %14.4f %-5s\n", "setup_s", setupS, "s")
	if err := writeRecord(cfg, host, res, named, setupS); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// timeSetup sets the workload up repeatedly, each time from a collected
// heap, and returns the median time in seconds.
func timeSetup(b bench) (float64, error) {
	var xs []float64
	start := time.Now()
	for i := 0; i < maxSetupReps && (i < minSetupReps || time.Since(start) < setupBudget); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// endToEndResult turns an untraced loop into the result line.
func endToEndResult(l *loop, setupS float64) *result {
	ms := durationsMS(l.ops)
	vals := map[string]float64{
		"setup_s":          setupS,
		"op_p50_ms":        median(ms),
		"op_tail_ms":       quantile(ms, l.tail),
		"alloc_b_per_item": l.allocPerItem,
	}
	if l.items > 0 {
		vals["items_per_s"] = l.items / l.elapsed.Seconds()
		vals["cpu_us_per_item"] = float64(l.cpu) / 1e3 / l.items
	}
	return newResult(l, endToEnd, vals)
}

// tracedChunks is how many untraced and as many traced chunks the traced
// run alternates, so a host that slows down part-way through the run
// weighs on both sides of the tracing-overhead ratio alike.
const tracedChunks = 3

// tracedRun alternates untraced and traced chunks of the loop, half of d
// each, then asks the workload for its per-layer metrics and writes the
// spans out. Telemetry and spans are on only in the traced chunks.
func tracedRun(b bench, cfg runConfig, d time.Duration, host hostInfo) (*result, []namedValue, error) {
	restore := telemetry.EnableDefault()
	defer restore()
	sp := newSpanLog(cfg.workload)
	chunk := d / (2 * tracedChunks)
	var plain, traced loop
	for i := 0; i < 2*tracedChunks; i++ {
		on := i%2 == 1
		telemetry.Default().SetEnabled(on)
		var log *spanLog
		side := &plain
		if on {
			log, side = sp, &traced
		}
		l, err := b.run(chunk, log)
		if err != nil {
			return nil, nil, err
		}
		side.add(l)
	}
	telemetry.Default().SetEnabled(true)
	vals, err := b.layers(&traced, sp)
	if err != nil {
		return nil, nil, err
	}
	ops := float64(max(traced.attempted, 1))
	vals["runtime.gc_cycles"] = float64(traced.gcCycles) / ops
	vals["runtime.gc_pause_ms"] = float64(traced.gcPause) / 1e6 / ops
	vals["bench.tracing_overhead"] = median(durationsMS(traced.ops)) / median(durationsMS(plain.ops))
	vals["host.calibration_ms"] = host.CalibrationMS
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := sp.writeFile(path); err != nil {
		return nil, nil, err
	}
	named := []namedValue{{
		name: "tracing_overhead", value: vals["bench.tracing_overhead"], unit: "ratio",
		note: fmt.Sprintf("traced/untraced op_p50 (%d vs %d ops); spans in %s", len(traced.ops), len(plain.ops), path),
	}}
	plain.add(&traced)
	return newResult(&plain, perLayer, vals), named, nil
}

// add folds the counts and samples of o into l.
func (l *loop) add(o *loop) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.ops = append(l.ops, o.ops...)
	l.items += o.items
	l.elapsed += o.elapsed
	l.cpu += o.cpu
	l.gcCycles += o.gcCycles
	l.gcPause += o.gcPause
}

// newResult builds the result line over defs; a metric the workload did
// not set reads 0.
func newResult(l *loop, defs []metricDef, vals map[string]float64) *result {
	r := &result{
		Correct:   l.failed == 0 && l.attempted > 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// writeRecord stores the run, host metadata included, as JSON under the
// output directory.
func writeRecord(cfg runConfig, host hostInfo, res *result, named []namedValue, setupS float64) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	rec := struct {
		Host     hostInfo           `json:"host"`
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Seconds  float64            `json:"seconds"`
		Traced   bool               `json:"traced"`
		SetupS   float64            `json:"setup_s"`
		Named    map[string]float64 `json:"named"`
		Result   *result            `json:"result"`
	}{host, cfg.workload, cfg.seed, cfg.seconds, cfg.traced, setupS, map[string]float64{}, res}
	for _, n := range named {
		rec.Named[n.name] = n.value
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("run-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	return os.WriteFile(path, data, 0o644)
}
