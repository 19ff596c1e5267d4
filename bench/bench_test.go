package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

const smokePhase = 200 * time.Millisecond

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, seed: 1, underTest: true}
}

// TestSmokeInProcess runs every in-process workload with 200 ms phases:
// nothing may fail and every end-to-end metric must be there. The
// tcp_* workloads spawn daemons and are left to the benchmark itself.
func TestSmokeInProcess(t *testing.T) {
	for _, w := range workloads {
		if w.tcp {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res := runWorkload(context.Background(), w, testEnv(t), smokePhase, false)
			if res.Failed != 0 || !res.Correct || res.Metrics["fail_ratio"].Value != 0 {
				t.Fatalf("fail_ratio %v, %d of %d failed: %v", res.Metrics["fail_ratio"].Value, res.Failed, res.Attempted, res.Errors)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			line := contractLine(res)
			if len(line.Metrics) != len(endToEnd) || line.Attempted < 1 || !line.Correct {
				t.Errorf("contract line %+v", line)
			}
		})
	}
}

// TestSmokeTraced runs the traced pass of the cheapest workload: every
// per-layer metric the probes can produce without a daemon must appear,
// cache.hit_ratio must read 0 on unique keys, and the trace file must
// hold the benchmark's spans and the program's.
func TestSmokeTraced(t *testing.T) {
	e := testEnv(t)
	e.tracer = trace.New(trace.Config{})
	res := runWorkload(context.Background(), pipeSmall, e, 4*smokePhase, true)
	if res.Failed != 0 {
		t.Fatalf("%d of %d failed: %v", res.Failed, res.Attempted, res.Errors)
	}
	defer os.Remove(res.TraceFile)
	for _, d := range perLayerDefs {
		if _, ok := res.Metrics[d.name]; !ok && d.name != "transport.conn_setup_us" && d.name != "transport.origin_direct_p50_us" {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	if got := res.Metrics["cache.hit_ratio"].Value; got != 0 {
		t.Errorf("cache.hit_ratio = %v on unique keys, want 0", got)
	}
	if got := res.Metrics["cdn.upstream_fetches_per_req"].Value; got != 1 {
		t.Errorf("cdn.upstream_fetches_per_req = %v, want 1", got)
	}
	for _, name := range []string{"hop.client_self_us", "hop.edge_self_us", "hop.origin_self_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0: the program's spans did not nest under the benchmark's", name, res.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	spans, _, err := fromChrome(raw)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bool{}
	for _, s := range spans {
		nodes[s.node] = true
	}
	for _, node := range []string{benchNode, "cloudflare-edge", "origin"} {
		if !nodes[node] {
			t.Errorf("trace file has no %s span", node)
		}
	}
}

// TestCorruptGoldenFails points exp_all at a copy of the goldens with
// one byte changed: the run must report failed ops, not a clean pass.
func TestCorruptGoldenFails(t *testing.T) {
	e := testEnv(t)
	src := filepath.Join(e.root, "internal", "exp", "testdata", "golden")
	e.goldenDir = t.TempDir()
	for _, name := range goldenExperiments {
		raw, err := os.ReadFile(filepath.Join(src, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if name == "table2" {
			raw[len(raw)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(e.goldenDir, name+".txt"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := expAll.setup(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	res := &result{Metrics: map[string]metric{}}
	timed(context.Background(), inst, smokePhase, false, expAll.tail, res)
	if res.Metrics["fail_ratio"].Value <= 0 || res.Correct {
		t.Fatalf("fail_ratio %v, correct %v on a corrupted golden", res.Metrics["fail_ratio"].Value, res.Correct)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileEndToEnd `json:"end_to_end"`
	PerLayer   []filePerLayer `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type filePerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSON holds ../BENCHMARK.json to the tables the benchmark
// runs from, so the file the driver reads cannot drift from the code.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, fileWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		want.EndToEnd = append(want.EndToEnd, fileEndToEnd{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerDefs {
		want.PerLayer = append(want.PerLayer, filePerLayer{d.name, d.unit, d.better})
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from metrics.go; run go test -run TestBenchmarkJSON -update")
	}
}
