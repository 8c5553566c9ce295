package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostInfo records where a run was measured, so a host change shows as
// such next to the figures it moved.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	GOGC       string `json:"gogc"`
	// CalibrationMS is the median time of a fixed integer loop: it moves
	// with the host's speed and with nothing in the repository.
	CalibrationMS float64 `json:"calibration_ms"`
}

func collectHost() hostInfo {
	h := hostInfo{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPU:           cpuModel(),
		GoVersion:     runtime.Version(),
		Commit:        "unknown",
		GOGC:          os.Getenv("GOGC"),
		CalibrationMS: calibrate(),
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink uint64

// calibrate times 2^24 xorshift steps five times and returns the median
// in milliseconds.
func calibrate() float64 {
	var xs []float64
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		xs = append(xs, float64(time.Since(t0))/1e6)
		calibrationSink += x
	}
	return median(xs)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics. xs is not modified; an empty xs gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func durationsMS(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	return ms
}

// cpuTime returns the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine-wide CPU time in /proc/stat and the part
// of it the hypervisor gave to other guests (steal), in clock ticks.
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// memMark is a point on the runtime's cumulative allocation and GC
// counters.
type memMark struct {
	alloc uint64
	gcs   uint32
	pause uint64
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, gcs: ms.NumGC, pause: ms.PauseTotalNs}
}

// since returns the bytes allocated, collections run and GC pause time
// between m0 and m.
func (m memMark) since(m0 memMark) (alloc uint64, gcs uint64, pause time.Duration) {
	return m.alloc - m0.alloc, uint64(m.gcs - m0.gcs), time.Duration(m.pause - m0.pause)
}

// spanLog keeps the benchmark-side spans of a traced run in memory: one
// span per public call into a layer, with the span that caused it and
// the operation it belongs to. A nil log records nothing.
type spanLog struct {
	workload string
	origin   time.Time
	ops      atomic.Int64
	mu       sync.Mutex
	spans    []span
}

type span struct {
	Name   string
	ID     int64
	Parent int64
	Op     int64
	Start  time.Duration // since origin
	End    time.Duration
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// nextOp returns a new operation id; a nil log returns 0.
func (l *spanLog) nextOp() int64 {
	if l == nil {
		return 0
	}
	return l.ops.Add(1)
}

// noop ends a span of a nil log.
func noop() {}

// begin opens a span and returns its ID and the function that ends it.
// On a nil log the ID is 0 and ending does nothing.
func (l *spanLog) begin(name string, parent, op int64) (int64, func()) {
	if l == nil {
		return 0, noop
	}
	start := time.Since(l.origin)
	l.mu.Lock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: -1})
	l.mu.Unlock()
	return id, func() {
		end := time.Since(l.origin)
		l.mu.Lock()
		l.spans[id-1].End = end
		l.mu.Unlock()
	}
}

// writeFile writes the spans as a Chrome trace-event file, which the
// Perfetto UI and chrome://tracing open. Each operation is one track.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Op,
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "op": s.Op, "workload": l.workload,
			},
		})
	}
	l.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
