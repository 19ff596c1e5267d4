package core

import (
	"context"
	"fmt"

	"repro/internal/httpwire"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/origin"
	"repro/internal/trace"
)

// This file holds the context-aware attack entry points. Each attack
// is a sequence of hops (edge round-trips); cancellation is honoured
// between hops, never mid-transfer, so a cancelled run leaves the
// topology in a consistent state and its partial traffic remains
// visible in the metrics registry.

// RunSBRContext is RunSBR honouring ctx between hops. A cancelled
// context returns ctx.Err() before the next request is sent; requests
// already in flight complete normally. It probes with the vendor's
// exploited Range case; RunSBRCase is the same measurement with an
// explicit case.
func RunSBRContext(ctx context.Context, t *SBRTopology, path string, resourceSize int64, cacheBuster string) (*SBRResult, error) {
	return RunSBRCase(ctx, t, path, SBRExploit(t.Profile.Name, resourceSize), cacheBuster)
}

// RunSBRCase sends rcase.Repeat identical requests carrying
// rcase.RangeHeader against the topology's edge (all sharing one
// cache-busting query, so repeats intentionally hit the same key) and
// returns the per-segment traffic measurement. It is the single-probe
// primitive behind RunSBRContext and the campaign runner's range-grammar
// axis; cancellation is honoured between requests.
func RunSBRCase(ctx context.Context, t *SBRTopology, path string, rcase SBRCase, cacheBuster string) (*SBRResult, error) {
	exploit := rcase
	if exploit.Repeat < 1 {
		exploit.Repeat = 1
	}
	probe := measure.NewProbe(t.OriginSeg, t.ClientSeg)
	target := path + "?cb=" + cacheBuster

	result := &SBRResult{Case: exploit}
	for i := 0; i < exploit.Repeat; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sbr request %d: %w", i, err)
		}
		req := NewAttackRequest(target)
		req.Headers.Add("Range", exploit.RangeHeader)
		sp, before := startClientSpan(t.Trace, t.ClientSeg, target, exploit.RangeHeader, &req.Headers)
		resp, err := origin.Fetch(t.Net, t.EdgeAddr, t.ClientSeg, req)
		endClientSpan(sp, t.ClientSeg, before, resp, err)
		if err != nil {
			return nil, fmt.Errorf("sbr request %d: %w", i, err)
		}
		result.Responses = append(result.Responses, resp)
	}
	result.Amplification = probe.Delta()
	return result, nil
}

// startClientSpan roots a trace at the attack client (node "attacker")
// when the topology's tracer samples this request, injecting the
// traceparent header so the edge and origin hops join the same tree.
// It snapshots the client segment so endClientSpan can attribute this
// request's wire bytes to the span.
func startClientSpan(tr *trace.Tracer, seg *netsim.Segment, target, rangeHeader string, hs *httpwire.Headers) (*trace.Span, netsim.Traffic) {
	sp := tr.StartRoot("attacker", target)
	if !sp.Recording() {
		return nil, netsim.Traffic{}
	}
	if rangeHeader != "" {
		if len(rangeHeader) > 48 {
			rangeHeader = rangeHeader[:45] + "..."
		}
		sp.SetAttr("range", rangeHeader)
	}
	if seg != nil {
		sp.SetAttr("segment", seg.Name)
	}
	trace.Inject(sp, hs)
	return sp, seg.Traffic()
}

// endClientSpan records the request's outcome and per-segment byte
// delta on the client span and closes it (completing the trace: the
// downstream hops all ended before their response bytes reached us).
func endClientSpan(sp *trace.Span, seg *netsim.Segment, before netsim.Traffic, resp *httpwire.Response, err error) {
	if !sp.Recording() {
		return
	}
	d := seg.Since(before)
	sp.SetAttrInt("bytes_up", d.Up)
	sp.SetAttrInt("bytes_down", d.Down)
	if resp != nil {
		sp.SetAttrInt("status", int64(resp.StatusCode))
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
}

// RunOBRContext is RunOBR honouring ctx: a context already cancelled
// when the attack request would be sent returns ctx.Err().
func RunOBRContext(ctx context.Context, t *OBRTopology, path string, n int) (*OBRResult, error) {
	// The sampling decision comes first: a traced request carries a
	// traceparent header, and the max-n planner must budget for it (the
	// vendor limits count every header field).
	sp := t.Trace.StartRoot("attacker", path)
	var extra httpwire.Headers
	if sp.Recording() {
		extra.Add(trace.Header, sp.Context().HeaderValue())
	}
	plan := planMaxN(t.FCDN.Profile(), t.BCDN.Profile(), path, extra)
	if n > 0 {
		plan.N = n
	}
	if plan.N < 1 {
		sp.End()
		return nil, fmt.Errorf("obr: no usable n for %s->%s", t.FCDN.Profile().Name, t.BCDN.Profile().Name)
	}
	if err := ctx.Err(); err != nil {
		sp.End()
		return nil, fmt.Errorf("obr request: %w", err)
	}
	probe := measure.NewProbe(t.FcdnBcdnSeg, t.BcdnOriginSeg)
	req := NewAttackRequest(path)
	rangeHeader := BuildOverlappingRange(plan.FirstToken, plan.N)
	req.Headers.Add("Range", rangeHeader)
	var before netsim.Traffic
	if sp.Recording() {
		sp.SetAttrInt("n", int64(plan.N))
		if len(rangeHeader) > 48 {
			rangeHeader = rangeHeader[:45] + "..."
		}
		sp.SetAttr("range", rangeHeader)
		sp.SetAttr("segment", t.ClientSeg.Name)
		trace.Inject(sp, &req.Headers)
		before = t.ClientSeg.Traffic()
	}
	// The n-part reply runs to megabytes; count its parts as it streams
	// in rather than materialize it.
	var parts partCounter
	resp, err := origin.FetchTo(t.Net, t.FCDNAddr, t.ClientSeg, req, parts.sink)
	endClientSpan(sp, t.ClientSeg, before, resp, err)
	if err != nil {
		return nil, fmt.Errorf("obr request: %w", err)
	}
	// Table V's two byte counts use the paper's own (mixed) vantage
	// points: fcdn-bcdn traffic was collected at an application-level
	// proxy the authors inserted between the CDNs, while bcdn-origin
	// traffic was captured on the wire (its 1676B for a 1KB resource
	// includes TCP/IP framing and handshakes). We therefore report the
	// application-level delta for the victim segment and the
	// capture-level estimate for the origin segment.
	appDelta := probe.Delta()
	wireDelta := probe.WireDelta()
	return &OBRResult{
		Case: plan,
		Amplification: measure.Amplification{
			VictimBytes:   appDelta.VictimBytes,    // fcdn-bcdn response bytes (proxy view)
			AttackerBytes: wireDelta.AttackerBytes, // bcdn-origin response bytes (capture view)
		},
		Response: resp,
		Parts:    parts.parts(resp),
	}, nil
}

// RunSBRFloodContext fires workers × perWorker SBR attack requests
// concurrently, honouring ctx between requests.
//
// Deprecated: use RunSBRFloodOpts, the canonical flood entry point; this
// wrapper fills FloodOptions positionally.
func RunSBRFloodContext(ctx context.Context, t *SBRTopology, path string, resourceSize int64, workers, perWorker int) (*FloodResult, error) {
	return RunSBRFloodOpts(ctx, t, FloodOptions{
		Path: path, ResourceSize: resourceSize, Workers: workers, PerWorker: perWorker,
	})
}

// RunSBRFloodOptsContext is RunSBRFloodContext with explicit options;
// the positional arguments override the corresponding opts fields.
//
// Deprecated: use RunSBRFloodOpts, which takes the same options with
// the target and load shape as FloodOptions fields.
func RunSBRFloodOptsContext(ctx context.Context, t *SBRTopology, path string, resourceSize int64, workers, perWorker int, opts FloodOptions) (*FloodResult, error) {
	opts.Path = path
	opts.ResourceSize = resourceSize
	opts.Workers = workers
	opts.PerWorker = perWorker
	return RunSBRFloodOpts(ctx, t, opts)
}
