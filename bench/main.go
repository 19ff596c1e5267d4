// Command bench is the repository's one benchmark: seven named
// workloads, the end-to-end metrics a user of RangeAmp sees, and a
// per-layer budget measured from outside through each package's public
// functions. See README.md in this directory.
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds S] [-trace] [-json FILE] [-selfcheck]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	jsonFile  string
	selfcheck bool
	child     bool
	root      string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), "|")+" (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "seeds every generated input (cache-buster strings, vtime arrival seed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long each workload is measured; tcp_* split it into a closed and an open phase")
	fs.BoolVar(&o.traced, "trace", false, "traced pass: a quarter of -seconds with spans on, plus the layer probes; prints the per-layer metrics")
	fs.StringVar(&o.jsonFile, "json", "", "also write provenance and every result to this file")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and fail if the two disagree by more than a metric's bound")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its result as JSON")
	fs.StringVar(&o.root, "root", "", "checkout root (default: the directory holding cmd/origind, looked for in . and ..)")
	if err := fs.Parse(boolValues(args, "trace")); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.root == "" {
		root, err := findRoot()
		if err != nil {
			return nil, err
		}
		o.root = root
	}
	return o, nil
}

// boolValues lets a boolean flag be given as "-flag 0" or "--flag 1",
// which the flag package would read as a flag and a stray argument.
func boolValues(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findRoot locates the checkout: go run -C bench leaves the process in
// bench/, a built binary is usually started from the root.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "origind")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find the checkout root (no cmd/origind in . or ..); pass -root")
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	if o.child {
		return runChild(ctx, o, stdout)
	}
	if o.selfcheck {
		return runSelfcheck(ctx, o, stdout, stderr)
	}

	prov := newProvenance(o)
	printHeader(stdout, o, prov)
	results, ok := runSet(ctx, o, o.traced, stdout, stderr)
	prov.End = time.Now().UTC().Format(time.RFC3339)
	if o.jsonFile != "" {
		if err := writeJSON(o.jsonFile, report{Provenance: prov, Results: results}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "bench: interrupted")
		return 1
	}
	// One workload is the driver's mode of use: the last line of
	// standard output is the result object of BENCHMARK.json's contract.
	if o.workload != "" && len(results) == 1 {
		if err := json.NewEncoder(stdout).Encode(contractLine(results[0])); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0 // a run that measured but failed its checks says so in the object
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild measures one workload in this process, so that peak RSS,
// allocation and CPU belong to that workload alone.
func runChild(ctx context.Context, o *options, stdout io.Writer) int {
	w := workloadByName(o.workload)
	if w == nil {
		return 2
	}
	e := &env{root: o.root, seed: o.seed}
	if o.traced {
		e.tracer = trace.New(trace.Config{})
	}
	res := runWorkload(ctx, w, e, time.Duration(o.seconds*float64(time.Second)), o.traced)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// runSet runs the selected workloads one after the other, each in a
// re-exec'd child of this binary, printing each result as it arrives.
func runSet(ctx context.Context, o *options, traced bool, stdout, stderr io.Writer) (results []*result, ok bool) {
	ok = true
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		if ctx.Err() != nil {
			return results, false
		}
		res := spawnChild(ctx, o, w, traced, stderr)
		printResult(stdout, w, res)
		results = append(results, res)
		ok = ok && res.Correct
	}
	return results, ok
}

// spawnChild re-executes this binary for one workload. On interrupt the
// child is asked to stop (it kills and waits for its daemons), and
// killed if it does not.
func spawnChild(ctx context.Context, o *options, w *workload, traced bool, stderr io.Writer) *result {
	self, err := os.Executable()
	if err != nil {
		return failedResult(w, o.seed, traced, err)
	}
	cmd := exec.CommandContext(ctx, self, "-child",
		"-workload", w.name, "-root", o.root,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		fmt.Sprintf("-trace=%t", traced))
	cmd.Stderr = stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.Output()
	if err != nil {
		return failedResult(w, o.seed, traced, fmt.Errorf("child process: %w", err))
	}
	res := &result{}
	if err := json.Unmarshal(out, res); err != nil {
		return failedResult(w, o.seed, traced, fmt.Errorf("child output: %w", err))
	}
	return res
}

// contractResult is the one JSON object the driver reads off the last
// line of standard output.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractLine keeps exactly the metrics BENCHMARK.json lists for the
// kind of run this was.
func contractLine(res *result) contractResult {
	defs := endToEnd
	if res.Traced {
		defs = perLayerDefs
	}
	out := contractResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			// Not measurable on this workload: 0 in the unit it would have.
			m = metric{0, d.unit}
		}
		out.Metrics[d.name] = m
	}
	return out
}

// report is the -json file.
type report struct {
	Provenance *provenance `json:"provenance"`
	Results    []*result   `json:"results"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func printHeader(w io.Writer, o *options, p *provenance) {
	mode := "untraced: end-to-end metrics"
	if o.traced {
		mode = "traced: a quarter of the length with spans on, then the layer probes; per-layer metrics"
	}
	fmt.Fprintf(w, "rangeamp bench — %s\n", mode)
	fmt.Fprintf(w, "commit %s (%s), %s, GOMAXPROCS %d (default, not set by the benchmark), nproc %d, %s\n",
		p.Commit, p.CommitTime, p.GoVersion, p.GOMAXPROCS, p.NProc, p.CPUModel)
	fmt.Fprintf(w, "seed %d, %g s per workload, one load-generator process with at most %d connections\n",
		o.seed, o.seconds, tcpConns)
	fmt.Fprintln(w, "tcp_* traffic crosses the host's loopback interface, not a real link")
}

func printResult(out io.Writer, w *workload, res *result) {
	fmt.Fprintf(out, "\n%s — %s loop; op = %s, unit = %s\n", w.name, w.loop, w.op, w.unit)
	fmt.Fprintf(out, "  why: %s\n", w.why)
	// Each kind of run prints its own list, in BENCHMARK.json's order.
	defs := endToEnd
	if res.Traced {
		defs = perLayerDefs
	}
	for _, name := range append(metricNames(defs), "fail_ratio") {
		m, ok := res.Metrics[name]
		if !ok {
			continue
		}
		note := ""
		if name == "unit_tail_ms" {
			note = fmt.Sprintf("   p%g of %d units", res.TailPct*100, res.Units)
			if !res.TailOK {
				note += " (too few units per run for a tail percentile: this is the median)"
			}
		}
		fmt.Fprintf(out, "  %-32s %14.4f %-6s%s\n", name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(out, "  trace: %s\n", res.TraceFile)
	}
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return names
}

// runSelfcheck runs the untraced set twice on the same code and holds
// the two against each other: the benchmark is only usable as a gate if
// it agrees with itself within its own bounds.
func runSelfcheck(ctx context.Context, o *options, stdout, stderr io.Writer) int {
	prov := newProvenance(o)
	printHeader(stdout, o, prov)
	var sets [2][]*result
	for i := range sets {
		fmt.Fprintf(stdout, "\n=== selfcheck set %d of 2 ===\n", i+1)
		var ok bool
		sets[i], ok = runSet(ctx, o, false, stdout, stderr)
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "bench: interrupted")
			return 1
		}
		if !ok {
			fmt.Fprintln(stderr, "bench: selfcheck: a workload failed its own checks")
			return 1
		}
	}
	fmt.Fprintf(stdout, "\n=== selfcheck: set 2 against set 1 ===\n")
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "gap", "bound")
	over := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			gap := relGap(va, vb, d.higherBetter())
			verdict := ""
			if gap > d.bound {
				verdict = "  OVER"
				over++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				a.Workload, d.name, va, vb, 100*gap, 100*d.bound, verdict)
		}
	}
	prov.End = time.Now().UTC().Format(time.RFC3339)
	if o.jsonFile != "" {
		if err := writeJSON(o.jsonFile, report{Provenance: prov, Results: append(sets[0], sets[1]...)}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if over > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d pairs disagree by more than their bound\n", over)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: every pair within its bound")
	return 0
}

// provenance is stamped on every JSON report, so a number can be traced
// to the code and the machine that produced it.
type provenance struct {
	Commit     string  `json:"commit"`
	CommitTime string  `json:"commit_time"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Start      string  `json:"start"`
	End        string  `json:"end"`
}

func newProvenance(o *options) *provenance {
	git := func(args ...string) string {
		cmd := exec.Command("git", args...)
		cmd.Dir = o.root
		out, err := cmd.Output()
		if err != nil {
			return "unknown" // the driver's checkout is not a git repository
		}
		return strings.TrimSpace(string(out))
	}
	return &provenance{
		Commit:     git("rev-parse", "HEAD"),
		CommitTime: git("show", "-s", "--format=%cI", "HEAD"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
}
