package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

// buildDirName is where everything the benchmark builds or writes
// while running lives, relative to the checkout root (trace files go to
// bench/out instead). It is in .gitignore.
const buildDirName = ".bench_build"

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. The instances but the last are torn down again.
const setupRepeats = 3

// env is what a workload is given to build and run itself.
type env struct {
	root   string // checkout root (the directory holding cmd/ and internal/)
	seed   int64  // seeds every generated input
	tracer *trace.Tracer
	// goldenDir overrides internal/exp/testdata/golden; the negative
	// test points it at a corrupted copy.
	goldenDir string
	// underTest is set by go test: the workload is set up once instead
	// of setupRepeats times and the probes that start a daemon are skipped.
	underTest bool
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	loop string // how load is offered, for the printed header
	op   string // what throughput_ops_s counts
	unit string // what unit_p50_ms times
	// tail is the percentile unit_tail_ms reports when a run's sample
	// supports it (at least ten samples beyond it). It is fixed per
	// workload, with a wide margin under the unit count of a standard
	// run, so that two runs never report different percentiles under one
	// name. Zero means a run has fewer than twenty units and the tail is
	// the median.
	tail float64
	// tcp marks the workloads that spawn daemons; go test skips them.
	tcp bool
	// setup builds one fresh instance of everything the timed phase
	// needs: topologies, warmed caches, daemons.
	setup func(ctx context.Context, e *env) (instance, error)
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure runs the timed phase for about d and records into m.
	// traced says whether requests should carry the benchmark's spans.
	measure(ctx context.Context, d time.Duration, traced bool, m *measurement)
	// rangeHeaders are the Range header values this workload's requests
	// carry, replayed into the ranges layer probe.
	rangeHeaders() []string
	close()
}

// measurement is what one timed phase produced.
type measurement struct {
	attempted int64 // ops attempted
	failed    int64 // ops that failed or belong to a unit whose check failed
	// wall is the timed wall of the closed loop and ops the ops completed
	// inside it (phase A on tcp_*). windowRate and windowCPU are the
	// median window's throughput and CPU cost, zero where a run is too
	// few units long to be cut into windows: see windowed.
	wall                  time.Duration
	ops                   int64
	windowRate, windowCPU float64
	// unitsMS are the unit times unit_p50_ms / unit_tail_ms summarise
	// (phase B on tcp_*, timed from each request's due time).
	unitsMS []float64
	errs    []string

	// Costs outside this process (the daemons on tcp_*).
	daemonCPU   map[string]time.Duration
	daemonAlloc uint64
	daemonRSS   uint64 // KiB

	// busyCPU and busyWall, when set, replace the whole phase as the
	// window proc.cpu_busy_ratio is taken over: tcp_* report how busy the
	// machine was while the closed loop saturated it, not while the open
	// loop paced itself.
	busyCPU, busyWall time.Duration

	lateMS   []float64 // open-loop generator lateness per request
	counters []series  // the run's counter delta, for inSitu
}

const maxErrs = 5

func (m *measurement) fail(ops int64, err error) {
	m.failed += ops
	if len(m.errs) < maxErrs {
		m.errs = append(m.errs, err.Error())
	}
}

// failAll marks every attempted op failed: a whole-run check (the
// registry does not say what the workload claims) did not hold.
func (m *measurement) failAll(err error) {
	m.failed = 0
	m.fail(m.attempted, err)
}

// loop is the closed-loop driver every in-process workload shares: each
// of clients callers runs unit back to back until d has passed, a
// caller's next unit starting only when its previous one returned, so a
// slower system is offered less load. unit returns how many ops it
// carried and an error if any of them failed or its output was wrong,
// in which case every op of the unit counts as failed.
//
// While the callers run, a sampler reads the completed-op count and the
// process CPU time every windowTick; windowed turns the readings into
// the per-window medians.
func (m *measurement) loop(ctx context.Context, d time.Duration, clients int, unit func(client, seq int) (ops int64, err error)) {
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		units int64
	)
	start := time.Now()
	deadline := start.Add(d)
	read := func() tick {
		mu.Lock()
		defer mu.Unlock()
		return tick{at: time.Since(start), ops: m.ops, units: units, cpu: selfCPU()}
	}
	ticks := []tick{read()}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(windowTick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ticks = append(ticks, read())
			case <-stop:
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ctx.Err() == nil && time.Now().Before(deadline); seq++ {
				t0 := time.Now()
				ops, err := unit(c, seq)
				took := time.Since(t0)
				mu.Lock()
				units++
				m.attempted += ops
				m.unitsMS = append(m.unitsMS, ms(took))
				if err != nil {
					m.fail(ops, err)
				} else {
					m.ops += ops
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	ticks = append(ticks, read())
	m.wall += time.Since(start)
	m.windowRate, m.windowCPU = windowed(ticks)
}

// tick is one reading of the loop's sampler.
type tick struct {
	at         time.Duration // since the loop started
	ops, units int64         // completed so far
	cpu        time.Duration // process CPU so far
}

const (
	windowTick     = 100 * time.Millisecond
	windowMinUnits = 10 // a window is widened until it holds this many units
	minWindows     = 5  // fewer windows than this and the run reports totals
)

// windowed cuts a loop's readings into consecutive windows of at least
// windowTick and windowMinUnits units, and returns the median window's
// throughput (ops/s) and CPU cost (us/op). A run of the request
// workloads has about a hundred windows; a stall — a long GC cycle, a
// neighbour on the host — spoils the few windows it falls in and leaves
// the median alone, where it would shift a mean over the whole run.
// Workloads whose units are too long for five windows (exp_all,
// vtime_flood, campaign_sweep) get zeros and report totals instead.
func windowed(ticks []tick) (rate, cpuUS float64) {
	var rates, cpus []float64
	from := ticks[0]
	for _, t := range ticks[1:] {
		if t.units-from.units < windowMinUnits {
			continue
		}
		ops := float64(t.ops - from.ops)
		rates = append(rates, ops/(t.at-from.at).Seconds())
		if ops > 0 {
			cpus = append(cpus, us(t.cpu-from.cpu)/ops)
		}
		from = t
	}
	if len(rates) < minWindows || len(cpus) < minWindows {
		return 0, 0
	}
	return median(rates), median(cpus)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload   string   `json:"workload"`
	Traced     bool     `json:"traced"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Correct    bool     `json:"correct"`
	Errors     []string `json:"errors,omitempty"`
	Units      int      `json:"units"`          // unit samples behind p50/tail
	TailPct    float64  `json:"tail_pct"`       // which percentile unit_tail_ms is
	TailOK     bool     `json:"tail_supported"` // false: fewer than 20 units, tail = median
	// UnitMS are further percentiles of the unit times, for the reader of
	// the -json file; only p50 and the tail are metrics.
	UnitMS    map[string]float64 `json:"unit_ms,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// failedResult is a run that could not be measured at all — a daemon
// that would not start, a set-up error. It reports fail_ratio = 1
// instead of crashing the whole benchmark.
func failedResult(w *workload, seed int64, traced bool, err error) *result {
	return &result{
		Workload: w.name, Traced: traced, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Attempted: 1, Failed: 1, Correct: false,
		Errors:  []string{err.Error()},
		Metrics: map[string]metric{"fail_ratio": {1, "ratio"}},
	}
}

// runWorkload is the body of one child process: set the workload up
// (several times, for a median), measure it for d, and turn the
// measurement into named metrics. Untraced runs report the end-to-end
// metrics; traced runs measure a quarter of d without and a quarter
// with spans, run the layer probes, and report the per-layer metrics.
func runWorkload(ctx context.Context, w *workload, e *env, d time.Duration, traced bool) *result {
	var (
		inst   instance
		setups []float64
	)
	repeats := setupRepeats
	if e.underTest {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(ctx, e)
		if err != nil {
			return failedResult(w, e.seed, traced, fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	res := &result{
		Workload: w.name, Traced: traced, Seed: e.seed, Seconds: d.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    map[string]metric{},
	}
	if !traced {
		timed(ctx, inst, d, false, w.tail, res)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res
	}

	// Traced pass: the same instance measured with spans off, then on;
	// the ratio of the two throughputs is the tracing overhead.
	quarter := d / 4
	e.tracer.Configure(trace.Config{})
	plainRes := &result{Metrics: map[string]metric{}}
	timed(ctx, inst, quarter, false, w.tail, plainRes)
	e.tracer.Configure(trace.Config{SampleEvery: 1, Capacity: traceCapacity})
	m := timed(ctx, inst, quarter, true, w.tail, res)
	perLayer(ctx, e, w, inst, res, plainRes, m)
	return res
}

// timed runs one measure call and turns what it produced, and the
// process costs around it (CPU, allocation, peak RSS), into res's
// workload-level metrics.
func timed(ctx context.Context, inst instance, d time.Duration, traced bool, tailLimit float64, res *result) *measurement {
	m := &measurement{}
	cpu0, alloc0, t0 := selfCPU(), selfAlloc(), time.Now()
	inst.measure(ctx, d, traced, m)
	elapsed, cpu, alloc := time.Since(t0), selfCPU()-cpu0, selfAlloc()-alloc0

	ops := float64(max(m.attempted, 1))
	var daemons time.Duration
	for _, c := range m.daemonCPU {
		daemons += c
	}
	rss, _ := peakRSSKiB(0) // 0 on a kernel without VmHWM; the metric then reads as the daemons' share
	cpuPerOp := us(cpu+daemons) / ops
	if m.windowCPU > 0 && daemons == 0 {
		cpuPerOp = m.windowCPU
	}
	res.Metrics["cpu_us_per_op"] = metric{cpuPerOp, "us"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(alloc+m.daemonAlloc) / 1024 / ops, "KiB"}
	res.Metrics["peak_rss_mb"] = metric{float64(rss+m.daemonRSS) / 1024, "MiB"}
	res.Metrics["proc.loadgen_cpu_us_per_req"] = metric{us(cpu) / ops, "us"}
	res.Metrics["proc.cdnsim_cpu_us_per_req"] = metric{us(m.daemonCPU["cdnsim"]) / ops, "us"}
	res.Metrics["proc.origind_cpu_us_per_req"] = metric{us(m.daemonCPU["origind"]) / ops, "us"}
	busyCPU, busyWall := cpu+daemons, elapsed
	if m.busyWall > 0 {
		busyCPU, busyWall = m.busyCPU, m.busyWall
	}
	res.Metrics["proc.cpu_busy_ratio"] = metric{
		busyCPU.Seconds() / (busyWall.Seconds() * float64(runtime.NumCPU())), "ratio"}

	res.Attempted, res.Failed = max(m.attempted, 1), m.failed
	if m.attempted == 0 {
		res.Failed = 1
		m.errs = append(m.errs, "no op was attempted")
	}
	res.Correct = res.Failed == 0
	res.Errors = m.errs
	res.Units = len(m.unitsMS)
	var tailMS float64
	tailMS, res.TailPct, res.TailOK = tail(m.unitsMS, tailLimit)
	rate := float64(m.ops) / max(m.wall.Seconds(), 1e-9)
	if m.windowRate > 0 {
		rate = m.windowRate
	}
	res.Metrics["throughput_ops_s"] = metric{rate, "1/s"}
	res.Metrics["unit_p50_ms"] = metric{median(m.unitsMS), "ms"}
	res.Metrics["unit_tail_ms"] = metric{tailMS, "ms"}
	res.UnitMS = map[string]float64{}
	for _, q := range tailLadder {
		if _, ok := tailQuantile(len(m.unitsMS), q); ok {
			res.UnitMS[fmt.Sprintf("p%g", q*100)] = quantile(m.unitsMS, q)
		}
	}
	res.Metrics["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	return m
}
