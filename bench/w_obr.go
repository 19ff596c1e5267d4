package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/vendor"
)

// cloudflareAkamaiFactor is the Table V factor of the Cloudflare ->
// Akamai cascade on a cold BCDN cache.
const cloudflareAkamaiFactor = 7529

var obrCascade = &workload{
	name: "obr_cascade",
	why:  "the only workload where ranges.Parse on ~10k-range headers (at FCDN, BCDN and origin) and n-part multipart encoding do most of the work",
	loop: "closed, 1 client,",
	op:   "request",
	unit: "request",
	tail: 0.95,
	setup: func(ctx context.Context, e *env) (instance, error) {
		rt := core.NewRuntime()
		rt.Trace = e.tracer
		w := &obrInst{e: e, rt: rt}
		for _, pair := range exp.OBRPairs() {
			fcdn, ok1 := vendor.ByName(pair[0])
			bcdn, ok2 := vendor.ByName(pair[1])
			if !ok1 || !ok2 {
				w.close()
				return nil, fmt.Errorf("obr_cascade: unknown pair %v", pair)
			}
			topo, err := core.NewOBRTopologyOpts(fcdn, bcdn, core.NewStoreWith(1024), core.OBROptions{Runtime: rt})
			if err != nil {
				w.close()
				return nil, err
			}
			w.topos = append(w.topos, topo)
			// The first request of a cascade is the paper's measurement
			// (cold BCDN cache); it also fills that cache, so the timed
			// requests all see the same steady state.
			res, err := core.RunOBRContext(ctx, topo, core.TargetPath, 0)
			if err != nil {
				w.close()
				return nil, err
			}
			w.headers = append(w.headers, core.BuildOverlappingRange(res.Case.FirstToken, res.Case.N))
			if pair[0] == "cloudflare" && pair[1] == "akamai" {
				if got := int(math.Round(res.Amplification.Factor())); got != cloudflareAkamaiFactor {
					w.close()
					return nil, fmt.Errorf("obr_cascade: cloudflare->akamai factor %d, want %d", got, cloudflareAkamaiFactor)
				}
			}
		}
		return w, nil
	},
}

type obrInst struct {
	e       *env
	rt      *core.Runtime
	topos   []*core.OBRTopology
	headers []string
}

func (w *obrInst) close() {
	for _, t := range w.topos {
		t.Close()
	}
}

func (w *obrInst) rangeHeaders() []string { return w.headers }

func (w *obrInst) measure(ctx context.Context, d time.Duration, _ bool, m *measurement) {
	before := w.rt.Registry().Snapshot()
	m.loop(ctx, d, 1, func(_, seq int) (int64, error) {
		topo := w.topos[seq%len(w.topos)]
		root := w.e.tracer.StartRoot("bench", "obr_cascade request")
		defer root.End()
		sp := root.StartChild("core.RunOBRContext")
		res, err := core.RunOBRContext(ctx, topo, core.TargetPath, 0)
		sp.End()
		if err != nil {
			return 1, err
		}
		if res.Parts != res.Case.N {
			return 1, fmt.Errorf("obr_cascade: %s->%s answered %d parts for n=%d",
				topo.FCDN.Profile().Name, topo.BCDN.Profile().Name, res.Parts, res.Case.N)
		}
		return 1, nil
	})
	m.counters = fromSnapshot(w.rt.Registry().Snapshot().Delta(before))
}
