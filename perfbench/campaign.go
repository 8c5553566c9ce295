package main

import (
	"bytes"
	"fmt"
	"time"

	"weakrace/internal/campaign"
	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// campaignSize sets how many programs the campaign workload cycles
// through, the seeds of one campaign, and the seeds per program of the
// traced run's serial replay.
type campaignSize struct {
	Programs, Seeds, ReplaySeeds int
}

// campaignBench is the racehunt path: one operation is one campaign.Run
// with default workers over Seeds simulator seeds of one program.
type campaignBench struct {
	seed  int64
	size  campaignSize
	progs []*workload.Workload
	want  [][]byte // each program's report from a Workers: 1 campaign
	out   bytes.Buffer
}

// setup generates RandomWorkload{CPUs 4, Segments 32, UnlockedFraction
// 0.3} programs with generator seeds seed*1000+k.
func (c *campaignBench) setup() error {
	c.progs = make([]*workload.Workload, c.size.Programs)
	for k := range c.progs {
		c.progs[k] = workload.Random(workload.RandomParams{
			Seed: c.seed*1000 + int64(k), CPUs: 4, Segments: 32, UnlockedFraction: 0.3,
		})
	}
	return nil
}

func (c *campaignBench) config(k, workers int) campaign.Config {
	return campaign.Config{Workload: c.progs[k], Model: memmodel.WO, Seeds: c.size.Seeds, Workers: workers}
}

func (c *campaignBench) reference() error {
	c.want = make([][]byte, len(c.progs))
	for k := range c.progs {
		rep, err := campaign.Run(c.config(k, 1))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			return err
		}
		c.want[k] = buf.Bytes()
	}
	return nil
}

func (c *campaignBench) run(d time.Duration, sp *spanLog) (*loop, error) {
	l := &loop{tail: 0.9} // a run holds hundreds of campaigns
	var allocKB []float64
	start, c0 := time.Now(), cpuTime()
	for time.Since(start) < d {
		k := l.attempted % len(c.progs)
		m0 := readMem()
		_, end := sp.begin("campaign.Run", 0, sp.nextOp())
		t0 := time.Now()
		rep, err := campaign.Run(c.config(k, 0))
		if err == nil {
			c.out.Reset()
			err = rep.Render(&c.out)
		}
		dur := time.Since(t0)
		end()
		alloc, gcs, pause := readMem().since(m0)
		l.attempted++
		l.ops = append(l.ops, dur)
		l.gcCycles += gcs
		l.gcPause += pause
		if err != nil || !bytes.Equal(c.out.Bytes(), c.want[k]) {
			l.failed++
			continue
		}
		l.items += float64(c.size.Seeds)
		allocKB = append(allocKB, float64(alloc)/1024/float64(c.size.Seeds))
	}
	l.elapsed, l.cpu = time.Since(start), cpuTime()-c0
	l.allocPerItem = median(allocKB) * 1024
	ms := durationsMS(l.ops)
	l.named = []namedValue{
		{"campaign_seeds_per_s", l.items / l.elapsed.Seconds(), "1/s", fmt.Sprintf("%d campaigns of %d seeds", l.attempted, c.size.Seeds)},
		{"campaign_alloc_kb_per_seed", median(allocKB), "KB", fmt.Sprintf("median of %d campaigns", len(allocKB))},
		{"campaign_run_ms", median(ms), "ms", fmt.Sprintf("p25 %.1f p75 %.1f", quantile(ms, 0.25), quantile(ms, 0.75))},
	}
	return l, nil
}

// layers replays ReplaySeeds seeds of every program serially through the
// calls one campaign seed makes, with warm arenas as a campaign worker
// keeps them, and reports the mean per seed.
func (c *campaignBench) layers(l *loop, sp *spanLog) (map[string]float64, error) {
	car, tar := core.NewArena(), trace.NewArena()
	var simUS, ops, fromUS, anUS, anKB []float64
	for _, w := range c.progs {
		for s := 0; s < c.size.ReplaySeeds; s++ {
			op := sp.nextOp()
			parent, endSeed := sp.begin("replay.seed", 0, op)

			_, end := sp.begin("sim.Run", parent, op)
			t0 := time.Now()
			r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: int64(s), InitMemory: w.InitMemory})
			simUS = append(simUS, float64(time.Since(t0))/1e3)
			end()
			if err != nil {
				return nil, err
			}
			ops = append(ops, float64(r.Exec.NumOps()))

			_, end = sp.begin("trace.FromExecutionInto", parent, op)
			t0 = time.Now()
			tr := trace.FromExecutionInto(r.Exec, tar)
			fromUS = append(fromUS, float64(time.Since(t0))/1e3)
			end()

			m0 := readMem()
			_, end = sp.begin("core.Analyze", parent, op)
			t0 = time.Now()
			_, err = core.Analyze(tr, core.Options{Workers: 1, Arena: car})
			anUS = append(anUS, float64(time.Since(t0))/1e3)
			end()
			alloc, _, _ := readMem().since(m0)
			if err != nil {
				return nil, err
			}
			anKB = append(anKB, float64(alloc)/1024)
			endSeed()
		}
	}
	return map[string]float64{
		"sim.run_us":                  mean(simUS),
		"sim.ops_per_seed":            mean(ops),
		"trace.from_execution_us":     mean(fromUS),
		"core.analyze_small_us":       mean(anUS),
		"core.analyze_small_alloc_kb": mean(anKB),
	}, nil
}

func (c *campaignBench) close() error { return nil }
