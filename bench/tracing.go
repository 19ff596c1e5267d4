package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/trace"
)

// The traced pass uses the program's own span recorder, internal/trace,
// instead of a second one: the benchmark opens a root span per unit and
// a child span around every call into a layer, and hands the same
// tracer to the program so its attacker -> edge -> origin spans land in
// the same ring.

const (
	// traceCapacity bounds the spans kept in memory; the ring keeps the
	// most recent traces.
	traceCapacity = 4096
	// benchNode labels the benchmark's own spans.
	benchNode = "bench"
)

// span is one recorded span reduced to what self-time accounting needs.
// The daemons' spans arrive as Chrome trace events, so both sources are
// brought to this shape.
type span struct {
	trace, id, parent string
	node, name        string
	start, dur        float64 // microseconds on the recording process's clock
}

func fromTracer(traces []*trace.Trace) []span {
	var out []span
	for _, tr := range traces {
		for _, s := range tr.Spans {
			sp := span{
				trace: s.Trace.String(), id: s.ID.String(),
				node: s.Node, name: s.Name,
				start: us(s.Start), dur: us(s.Finish - s.Start),
			}
			if s.Parent != 0 {
				sp.parent = s.Parent.String()
			}
			out = append(out, sp)
		}
	}
	return out
}

// chromeEvents is the part of a Chrome trace-event document the
// benchmark reads back from a daemon's /debug/traces.
type chromeEvents struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func fromChrome(doc []byte) ([]span, []map[string]any, error) {
	var file chromeEvents
	if err := json.Unmarshal(doc, &file); err != nil {
		return nil, nil, err
	}
	var out []span
	for _, ev := range file.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		args, _ := ev["args"].(map[string]any)
		str := func(m map[string]any, k string) string { s, _ := m[k].(string); return s }
		num := func(k string) float64 { f, _ := ev[k].(float64); return f }
		out = append(out, span{
			trace: str(args, "trace_id"), id: str(args, "span_id"), parent: str(args, "parent_id"),
			node: str(ev, "cat"), name: str(ev, "name"),
			start: num("ts"), dur: num("dur"),
		})
	}
	return out, file.TraceEvents, nil
}

func isEdge(node string) bool   { return strings.HasSuffix(node, "-edge") }
func isOrigin(node string) bool { return node == "origin" }

// hopSelfTimes splits each traced request into the time spent in the
// client, in the edges and in the origin: a hop's self time is its
// spans' duration minus what their child spans cover. One value per
// trace that reached an edge (and, for the client, that was sent under
// a client span); the caller takes medians.
//
// Spans of one process share a clock and are subtracted as intervals.
// A child recorded by another process (remote=true: the daemons of the
// tcp_* workloads) is on a different clock and its span ids may collide
// with the parent process's, so there the hops are nested by duration
// alone: client minus edge server span, edge server span minus origin.
func hopSelfTimes(spans []span, remote bool) (client, edge, origin []float64) {
	byTrace := map[string][]span{}
	for _, s := range spans {
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	for _, ss := range byTrace {
		var c, e, o float64
		var sawEdge bool
		if remote {
			var clientDur, edgeDur, originDur float64
			for _, s := range ss {
				switch {
				case isEdge(s.node):
					sawEdge = true
					edgeDur = max(edgeDur, s.dur) // the server span encloses its fetches
				case isOrigin(s.node):
					originDur += s.dur
				case s.parent != "":
					clientDur = max(clientDur, s.dur) // the benchmark's client-call span
				}
			}
			c, e, o = max(clientDur-edgeDur, 0), max(edgeDur-originDur, 0), originDur
		} else {
			kids := map[string][]interval{}
			byID := map[string]span{}
			for _, s := range ss {
				byID[s.id] = s
				kids[s.parent] = append(kids[s.parent], interval{s.start, s.start + s.dur})
			}
			callers := map[string]bool{} // client spans already counted
			for _, s := range ss {
				self := selfTime(interval{s.start, s.start + s.dur}, kids[s.id])
				switch {
				case isEdge(s.node):
					sawEdge = true
					e += self
					// The client hop is whatever span called the first edge.
					if p, ok := byID[s.parent]; ok && !isEdge(p.node) && !callers[p.id] {
						callers[p.id] = true
						c += selfTime(interval{p.start, p.start + p.dur}, kids[p.id])
					}
				case isOrigin(s.node):
					o += self
				}
			}
		}
		if sawEdge {
			edge, origin = append(edge, e), append(origin, o)
			// Requests sent without a client span (probe traffic the
			// program roots at the edge) have no client hop to report.
			if c > 0 {
				client = append(client, c)
			}
		}
	}
	return client, edge, origin
}

// remoteTracer is implemented by instances whose program runs in other
// processes: it fetches their completed traces.
type remoteTracer interface {
	remoteTraces() ([]remoteDoc, error)
}

// remoteDoc is one process's Chrome trace-event document.
type remoteDoc struct {
	process string
	doc     []byte
}

func (w *tcpInst) remoteTraces() ([]remoteDoc, error) {
	var docs []remoteDoc
	for _, d := range []*daemon{w.cdnsim, w.origind} {
		doc, err := d.get("/debug/traces")
		if err != nil {
			return nil, err
		}
		docs = append(docs, remoteDoc{d.name, doc})
	}
	return docs, nil
}

// originAddresser is implemented by instances that already run an
// origind the transport probes can use.
type originAddresser interface{ originAddr() string }

func (w *tcpInst) originAddr() string { return w.origind.addr }

// perLayer fills res with the per-layer metrics of a traced run: the
// layer probes, the in-situ ratios from the run's own telemetry, the
// hop self times from the spans, and the tracing overhead against the
// untraced result plainRes. It writes the trace file last.
func perLayer(ctx context.Context, e *env, w *workload, inst instance, res, plainRes *result, m *measurement) {
	problem := func(err error) {
		res.Correct = false
		res.Failed = res.Attempted
		res.Metrics["fail_ratio"] = metric{1, "ratio"}
		if len(res.Errors) < maxErrs {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	for name, v := range inSitu(m.counters) {
		set(name, v, "ratio")
	}
	set("loadgen.late_p99_ms", quantile(m.lateMS, 0.99), "ms")

	set("trace.overhead_ratio", plainRes.Metrics["throughput_ops_s"].Value/max(res.Metrics["throughput_ops_s"].Value, 1e-9), "ratio")

	// Hop self times and span counts come from the workload's own
	// traces, so they are read before the probes add theirs.
	spans := fromTracer(e.tracer.Traces())
	var extra []map[string]any
	remote := false
	if rt, ok := inst.(remoteTracer); ok {
		remote = true
		docs, err := rt.remoteTraces()
		if err != nil {
			problem(err)
		}
		for i, d := range docs {
			ss, events, err := fromChrome(d.doc)
			if err != nil {
				problem(fmt.Errorf("%s /debug/traces: %w", d.process, err))
				continue
			}
			spans = append(spans, ss...)
			extra = append(extra, inProcess(events, i+2, d.process)...) // pid 1 is the benchmark
		}
	}
	client, edge, origin := hopSelfTimes(spans, remote)
	set("hop.client_self_us", median(client), "us")
	set("hop.edge_self_us", median(edge), "us")
	set("hop.origin_self_us", median(origin), "us")
	program, requests := 0, map[string]bool{}
	for _, s := range spans {
		if s.node != benchNode {
			program++
			requests[s.trace] = true
		}
	}
	set("trace.spans_per_req", float64(program)/float64(max(len(requests), 1)), "count")

	p := &prober{tr: e.tracer, out: res.Metrics}
	if err := p.layerProbes(ctx, inst.rangeHeaders()); err != nil {
		problem(err)
	}
	if err := p.expProbes(ctx); err != nil {
		problem(err)
	}
	if err := p.campaignProbes(ctx, e.root); err != nil {
		problem(err)
	}
	if !e.underTest {
		if err := withOrigind(ctx, e, inst, p.transportProbes); err != nil {
			problem(err)
		}
	}

	file, err := writeTrace(e, w.name, extra)
	if err != nil {
		problem(err)
	}
	res.TraceFile = file
}

// withOrigind runs fn against the instance's own origind when it has
// one, and against a freshly built and started one otherwise.
func withOrigind(ctx context.Context, e *env, inst instance, fn func(addr string) error) error {
	if oa, ok := inst.(originAddresser); ok {
		return fn(oa.originAddr())
	}
	dir, err := buildDaemons(ctx, e.root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(ctx, "origind", filepath.Join(dir, "origind"), nil,
		"-addr", "127.0.0.1:0", "-sizes", fmt.Sprintf("1MB=%d", tcpSize),
		"-trace-sample", "0", "-metrics-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer d.stop()
	return fn(d.addr)
}

// inProcess moves Chrome trace events under one process id and names
// the process, so the viewer keeps the benchmark and each daemon apart.
func inProcess(events []map[string]any, pid int, name string) []map[string]any {
	for _, ev := range events {
		ev["pid"] = pid
	}
	return append(events, map[string]any{
		"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
		"args": map[string]any{"name": name},
	})
}

// writeTrace writes everything the run's tracer holds, plus any events
// pulled from daemons, as one Chrome trace-event file under bench/out.
func writeTrace(e *env, workload string, extra []map[string]any) (string, error) {
	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	// The tracer's exporter writes a whole document; it is read back so
	// the daemons' events can join it, each process under its own pid.
	var own bytes.Buffer
	if err := trace.WriteChromeTrace(&own, e.tracer.Traces()); err != nil {
		return "", err
	}
	var doc chromeEvents
	if err := json.Unmarshal(own.Bytes(), &doc); err != nil {
		return "", err
	}
	doc.TraceEvents = append(inProcess(doc.TraceEvents, 1, benchNode), extra...)
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		return "", err
	}
	return path, f.Close()
}
