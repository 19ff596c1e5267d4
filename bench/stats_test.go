package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 1}, 5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 3, 5, 7, 9}, 2, 5, 8},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v %v %v", tc.xs, q1, q2, q3, ok, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		limit     float64
		want      float64
		supported bool
	}{
		{5, 0.99, 0.50, false},   // five passes: no tail, never a p99
		{19, 0.99, 0.50, false},  // 9 beyond the median: still none
		{20, 0.99, 0.50, true},   // exactly ten beyond the median
		{39, 0.99, 0.50, true},   // p75 would leave 9
		{40, 0.99, 0.75, true},   // p75 leaves 10
		{100, 0.99, 0.90, true},  // p90 leaves 10, p95 leaves 5
		{200, 0.99, 0.95, true},  // p95 leaves 10
		{999, 0.99, 0.95, true},  // p99 leaves 9
		{1000, 0.99, 0.99, true}, // p99 leaves 10
		{100000, 0.99, 0.99, true},
		{100000, 0.95, 0.95, true}, // the workload's limit caps the rung
		{100000, 0, 0.50, false},   // a workload that declares no tail
	} {
		q, ok := tailQuantile(tc.n, tc.limit)
		if q != tc.want || ok != tc.supported {
			t.Errorf("tailQuantile(%d, %v) = p%g supported=%v, want p%g supported=%v",
				tc.n, tc.limit, q*100, ok, tc.want*100, tc.supported)
		}
	}

	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if v, q, ok := tail(xs, 0.99); v != 990 || q != 0.99 || !ok {
		t.Errorf("tail(1..1000) = %v at p%g (%v), want 990 at p99", v, q*100, ok)
	}
	if v, _, ok := tail([]float64{3, 9, 1}, 0.99); v != 3 || ok {
		t.Errorf("tail of three values = %v (%v), want the median 3, unsupported", v, ok)
	}
	if got := quantile(xs, 0.50); got != 500 {
		t.Errorf("quantile(1..1000, 0.5) = %v, want 500", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		span     interval
		children []interval
		want     float64
	}{
		{"no children", interval{0, 10}, nil, 10},
		{"one child", interval{0, 10}, []interval{{2, 5}}, 7},
		{"sequential children", interval{0, 10}, []interval{{1, 3}, {5, 8}}, 5},
		{"overlapping children count once", interval{0, 10}, []interval{{1, 6}, {4, 8}}, 3},
		{"nested children count once", interval{0, 10}, []interval{{1, 9}, {2, 3}}, 2},
		{"child clipped to the span", interval{5, 10}, []interval{{0, 7}, {9, 20}}, 2},
		{"child outside the span", interval{5, 10}, []interval{{0, 4}}, 5},
		{"unsorted children", interval{0, 10}, []interval{{6, 8}, {0, 2}}, 6},
		{"fully covered", interval{0, 10}, []interval{{0, 10}}, 0},
		{"empty span", interval{3, 3}, []interval{{0, 10}}, 0},
	} {
		if got := selfTime(tc.span, tc.children); !near(got, tc.want) {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestHopSelfTimes(t *testing.T) {
	// One in-process request: client call 0-100, edge 10-90 with a fetch
	// 20-80, origin 30-50.
	local := []span{
		{trace: "t", id: "1", node: benchNode, start: 0, dur: 110},
		{trace: "t", id: "2", parent: "1", node: benchNode, start: 0, dur: 100},
		{trace: "t", id: "3", parent: "2", node: "cloudflare-edge", start: 10, dur: 80},
		{trace: "t", id: "4", parent: "3", node: "cloudflare-edge", start: 20, dur: 60},
		{trace: "t", id: "5", parent: "4", node: "origin", start: 30, dur: 20},
		{trace: "other", id: "9", node: benchNode, start: 0, dur: 5}, // never reached an edge
	}
	c, e, o := hopSelfTimes(local, false)
	if len(c) != 1 || c[0] != 20 || e[0] != 20+40 || o[0] != 20 {
		t.Errorf("in-process hops = %v %v %v, want [20] [60] [20]", c, e, o)
	}
	// The same request seen from three processes: clocks differ and the
	// daemons' span ids collide with the client's, so only durations nest.
	remote := []span{
		{trace: "t", id: "1", node: benchNode, start: 0, dur: 110},
		{trace: "t", id: "2", parent: "1", node: benchNode, start: 0, dur: 100},
		{trace: "t", id: "1", parent: "2", node: "cloudflare-edge", start: 7000, dur: 80},
		{trace: "t", id: "2", parent: "1", node: "cloudflare-edge", start: 7010, dur: 60},
		{trace: "t", id: "1", parent: "2", node: "origin", start: 90000, dur: 20},
	}
	c, e, o = hopSelfTimes(remote, true)
	if len(c) != 1 || c[0] != 20 || e[0] != 60 || o[0] != 20 {
		t.Errorf("cross-process hops = %v %v %v, want [20] [60] [20]", c, e, o)
	}
}

func TestRelGap(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		higher bool
		want   float64
	}{
		{100, 110, false, 0.10}, // latency rose 10 %: worse
		{100, 90, false, -0.10}, // latency fell: better
		{100, 90, true, 0.10},   // throughput fell 10 %: worse
		{100, 120, true, -0.20},
		{0, 5, false, 0},
	} {
		if got := relGap(tc.a, tc.b, tc.higher); !near(got, tc.want) {
			t.Errorf("relGap(%v, %v, %v) = %v, want %v", tc.a, tc.b, tc.higher, got, tc.want)
		}
	}
}

func TestParsePrometheus(t *testing.T) {
	page := `# HELP cdn_requests_total Requests.
# TYPE cdn_requests_total counter
cdn_requests_total{vendor="cloudflare"} 12
netsim_segment_bytes_total{direction="down",segment="cdn-origin"} 1048576
netsim_conns_opened_total{segment="client-cdn"} 3
netsim_conns_opened_total{segment="cdn-origin"} 12
cache_hits_total 0
# exemplar: whatever
`
	ss := parsePrometheus(page)
	if got := total(ss, "cdn_requests_total", nil); got != 12 {
		t.Errorf("cdn_requests_total = %v", got)
	}
	if got := total(ss, "netsim_conns_opened_total", upstreamSegment); got != 12 {
		t.Errorf("upstream conns = %v, want 12 (client-cdn excluded)", got)
	}
	in := inSitu(ss)
	if in["cdn.upstream_dials_per_req"] != 1 || in["cache.hit_ratio"] != 0 {
		t.Errorf("inSitu = %v", in)
	}
	after := parsePrometheus("cdn_requests_total{vendor=\"cloudflare\"} 20\n")
	if got := total(sub(after, ss), "cdn_requests_total", nil); got != 8 {
		t.Errorf("delta = %v, want 8", got)
	}
}

func TestBoolValues(t *testing.T) {
	got := boolValues([]string{"--workload", "tcp_hit", "--seed", "7", "--seconds", "10", "--trace", "1"}, "trace")
	want := []string{"--workload", "tcp_hit", "--seed", "7", "--seconds", "10", "--trace=1"}
	if len(got) != len(want) {
		t.Fatalf("boolValues = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boolValues = %v, want %v", got, want)
		}
	}
	if got := boolValues([]string{"-trace", "-json", "x"}, "trace"); got[0] != "-trace" || len(got) != 3 {
		t.Errorf("a bare -trace was rewritten: %v", got)
	}
}

func TestWindowed(t *testing.T) {
	// Ten 100 ms ticks of 20 units, 40 ops and 50 ms CPU each, with one
	// 400 ms stall in which only 4 units finished: the stalled stretch is
	// widened until it holds ten units and then counts as one slow
	// window, which the median ignores.
	ticks := []tick{{}}
	add := func(dt time.Duration, units int64) {
		last := ticks[len(ticks)-1]
		ticks = append(ticks, tick{at: last.at + dt, units: last.units + units, ops: last.ops + 2*units, cpu: last.cpu + dt/2})
	}
	for i := 0; i < 5; i++ {
		add(100*time.Millisecond, 20)
	}
	for i := 0; i < 4; i++ {
		add(100*time.Millisecond, 1)
	}
	for i := 0; i < 5; i++ {
		add(100*time.Millisecond, 20)
	}
	rate, cpu := windowed(ticks)
	if !near(rate, 400) || !near(cpu, 1250) {
		t.Errorf("windowed = %v ops/s, %v us/op, want 400 and 1250", rate, cpu)
	}
	// Five passes of 1.8 s: far too few units for windows, so the caller
	// falls back to totals.
	slow := []tick{{}}
	for i := 1; i <= 90; i++ {
		slow = append(slow, tick{at: time.Duration(i) * 100 * time.Millisecond, units: int64(i / 18), ops: int64(13 * (i / 18))})
	}
	if rate, cpu := windowed(slow); rate != 0 || cpu != 0 {
		t.Errorf("windowed on five long units = %v, %v, want 0, 0", rate, cpu)
	}
}
