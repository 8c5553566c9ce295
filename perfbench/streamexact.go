package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weakrace/internal/memmodel"
	"weakrace/internal/onthefly"
	"weakrace/internal/sim"
	"weakrace/internal/stream"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// streamSize sets how many executions stream-exact cycles through and
// the range their segment counts are spread over.
type streamSize struct {
	Executions               int
	MinSegments, MaxSegments int
}

// sendTimeout bounds one stream from dial to summary; a stream that
// takes longer counts as a failed operation.
const sendTimeout = 30 * time.Second

// streamExact is the wrclient → wrserve path: closed-loop clients stream
// executions over loopback to an in-process server with default options
// (exact detection, no tracer), one stream per operation.
type streamExact struct {
	seed  int64
	size  streamSize
	execs []*sim.Execution
	want  [][]string // canonical sorted onthefly.Detect races per execution
	srv   *stream.Server

	// Traced-loop detail for layers.
	traced []streamObs
}

// streamObs is one stream of the traced loop.
type streamObs struct {
	exec    int
	rtt     time.Duration
	queueHW int // the summary's deepest batch queue
}

// segments returns the segment count of execution i: a geometric spread
// from MinSegments to MaxSegments, so stream lengths vary by their ratio.
func (s *streamExact) segments(i int) int {
	if s.size.Executions == 1 {
		return s.size.MinSegments
	}
	ratio := float64(s.size.MaxSegments) / float64(s.size.MinSegments)
	f := float64(i) / float64(s.size.Executions-1)
	return int(math.Round(float64(s.size.MinSegments) * math.Pow(ratio, f)))
}

// setup simulates RandomWorkload{CPUs 4, UnlockedFraction 0.3} on WO at
// each segment count, generator seed seed*1000+i, sim seed = seed.
func (s *streamExact) setup() error {
	s.execs = make([]*sim.Execution, s.size.Executions)
	for i := range s.execs {
		w := workload.Random(workload.RandomParams{
			Seed: s.seed*1000 + int64(i), CPUs: 4, Segments: s.segments(i), UnlockedFraction: 0.3,
		})
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: s.seed, InitMemory: w.InitMemory})
		if err != nil {
			return err
		}
		s.execs[i] = r.Exec
	}
	return nil
}

// reference renders each execution's races the way wrclient -oracle
// does: exact onthefly.Detect, canonical strings, sorted.
func (s *streamExact) reference() error {
	s.want = make([][]string, len(s.execs))
	for i, e := range s.execs {
		res := onthefly.Detect(e, onthefly.Options{})
		races := make([]string, 0, len(res.Races))
		for ll := range res.Races {
			races = append(races, ll.String())
		}
		sort.Strings(races)
		s.want[i] = races
	}
	return nil
}

// clients is the number of closed-loop clients: two, or fewer on a host
// with fewer CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

func (s *streamExact) run(d time.Duration, sp *spanLog) (*loop, error) {
	if s.srv == nil {
		srv, err := stream.Serve(stream.Options{Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		s.srv = srv
	}
	addr := s.srv.Addr()
	l := &loop{tail: 0.9} // a run holds thousands of streams
	var (
		mu     sync.Mutex
		next   atomic.Int64
		events int
		obs    []streamObs
	)
	m0, c0 := readMem(), cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int((next.Add(1) - 1) % int64(len(s.execs)))
				_, end := sp.begin("stream.Send", 0, sp.nextOp())
				t0 := time.Now()
				sum, err := stream.Send(addr, s.execs[i], stream.SendOptions{Timeout: sendTimeout})
				rtt := time.Since(t0)
				end()
				ok := err == nil && sum.Err == "" && slices.Equal(sum.Races, s.want[i])
				mu.Lock()
				l.attempted++
				l.ops = append(l.ops, rtt)
				if ok {
					events += sum.Events
					if sp != nil {
						obs = append(obs, streamObs{exec: i, rtt: rtt, queueHW: sum.QueueHighWater})
					}
				} else {
					l.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.elapsed = time.Since(start)
	l.cpu = cpuTime() - c0
	alloc, gcs, pause := readMem().since(m0)
	l.items = float64(events)
	if events > 0 {
		l.allocPerItem = float64(alloc) / float64(events)
	}
	l.gcCycles, l.gcPause = gcs, pause
	ms := durationsMS(l.ops)
	l.named = []namedValue{
		{"stream_events_per_s", l.items / l.elapsed.Seconds(), "1/s", fmt.Sprintf("%d streams, %d events, %d clients", len(ms), events, clients())},
		{"stream_rtt_p50_ms", median(ms), "ms", fmt.Sprintf("dial to summary, %d streams", len(ms))},
		{"stream_rtt_p90_ms", quantile(ms, 0.9), "ms", fmt.Sprintf("%d samples beyond", len(ms)/10)},
		{"stream_alloc_b_per_event", l.allocPerItem, "B", "client and server"},
	}
	s.traced = append(s.traced, obs...)
	return l, nil
}

func (s *streamExact) layers(l *loop, sp *spanLog) (map[string]float64, error) {
	vals := map[string]float64{}
	snap := telemetry.Default().Snapshot()
	for name, phase := range map[string]string{"wait": "stream.batch_wait", "feed": "stream.batch_feed"} {
		ph := snap.Phases[phase]
		vals["stream.batch_"+name+"_p50_us"] = float64(ph.Quantile(0.5)) / 1e3
		vals["stream.batch_"+name+"_p99_us"] = float64(ph.Quantile(0.99)) / 1e3
	}
	hw := 0
	for _, o := range s.traced {
		hw = max(hw, o.queueHW)
	}
	vals["stream.queue_high_water"] = float64(hw)

	// Serial replay: each execution through the codec and the detector,
	// one layer at a time.
	layerNS := make([]time.Duration, len(s.execs)) // encode+decode+feed per execution
	var encNS, decNS, feedNS time.Duration
	var events, comparisons, peak int
	var buf bytes.Buffer
	var ops []sim.MemOp
	for i, e := range s.execs {
		op := sp.nextOp()
		parent, endExec := sp.begin("replay.execution", 0, op)

		buf.Reset()
		_, end := sp.begin("trace.StreamExecution", parent, op)
		t0 := time.Now()
		err := trace.StreamExecution(&buf, e, 0)
		enc := time.Since(t0)
		end()
		if err != nil {
			return nil, err
		}

		_, end = sp.begin("trace.StreamReader.Next", parent, op)
		t0 = time.Now()
		decoded, err := decodeAll(&buf, ops[:0])
		dec := time.Since(t0)
		end()
		if err != nil {
			return nil, err
		}
		ops = decoded

		_, end = sp.begin("onthefly.Detector.Feed", parent, op)
		t0 = time.Now()
		det := onthefly.NewDetector(e.NumCPUs, e.NumLocations, onthefly.Options{})
		det.SetSource(e.ProgramName, e.Model, e.Seed)
		for _, o := range ops {
			det.Feed(o)
		}
		res := det.Result()
		feed := time.Since(t0)
		end()
		endExec()

		encNS += enc
		decNS += dec
		feedNS += feed
		layerNS[i] = enc + dec + feed
		events += res.OpsProcessed
		comparisons += res.Comparisons
		peak = max(peak, res.PeakLiveAccesses)
	}
	n := float64(events)
	vals["trace.stream_encode_ns_per_event"] = float64(encNS) / n
	vals["trace.stream_decode_ns_per_event"] = float64(decNS) / n
	vals["onthefly.feed_ns_per_event"] = float64(feedNS) / n
	vals["onthefly.comparisons_per_event"] = float64(comparisons) / n
	vals["onthefly.peak_live_accesses"] = float64(peak)

	// Self time of a stream: its round trip minus the codec and detector
	// work the replay measured for the same execution.
	self := make([]float64, len(s.traced))
	for k, o := range s.traced {
		self[k] = float64(o.rtt-layerNS[o.exec]) / 1e6
	}
	vals["stream.self_ms_p50"] = median(self)
	return vals, nil
}

// decodeAll reads a whole WRS1 stream, appending its operations to ops.
func decodeAll(r io.Reader, ops []sim.MemOp) ([]sim.MemOp, error) {
	sr, err := trace.NewStreamReader(r)
	if err != nil {
		return ops, err
	}
	for {
		ops, err = sr.Next(ops)
		if errors.Is(err, io.EOF) {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
	}
}

func (s *streamExact) close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
