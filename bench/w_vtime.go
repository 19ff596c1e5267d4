package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/core"
)

const (
	vtimeNodes   = 4
	vtimeClients = 1_000_000
)

var vtimeFlood = &workload{
	name: "vtime_flood",
	why:  "the discrete-event engine alone: heap, link, replay, arrival stream and calibration; no wire layer matters after calibration, and peak RSS caps the population",
	loop: "closed, 1 caller,",
	op:   "simulated client",
	unit: "flood",
	setup: func(ctx context.Context, e *env) (instance, error) {
		w := &vtimeInst{e: e}
		// One untimed flood grows the heap to the population's working
		// size and fixes the digest every timed flood must reproduce.
		res, err := w.flood(ctx, false)
		if err != nil {
			return nil, err
		}
		w.digest = floodDigest(res)
		return w, nil
	},
}

type vtimeInst struct {
	e      *env
	digest string
}

func (w *vtimeInst) close() {}

func (w *vtimeInst) rangeHeaders() []string {
	return []string{core.SBRExploit("cloudflare", 1<<20).RangeHeader}
}

// flood runs one million-client keep-alive flood against a fresh
// four-PoP Cloudflare cluster.
func (w *vtimeInst) flood(ctx context.Context, traced bool) (*core.ClusterFloodResult, error) {
	rt := core.NewRuntime()
	if traced {
		rt.Trace = w.e.tracer
	}
	return core.RunClusterFlood(ctx, rt, core.ClusterFloodOptions{
		Nodes:        vtimeNodes,
		Workers:      vtimeClients,
		PerWorker:    1,
		KeepAlive:    true,
		ResourceSize: 1 << 20,
		Engine:       core.EngineVTime,
		VTime:        core.VTimeOptions{Seed: w.e.seed},
	})
}

// floodDigest folds every simulated statistic of a flood into one
// string: a simulator speed-up must leave all of them identical.
func floodDigest(r *core.ClusterFloodResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %v\n", r.Requests, r.Failures, r.Blocked, r.Dials,
		r.Amplification.VictimBytes, r.Amplification.AttackerBytes, r.VirtualDuration)
	for _, n := range r.PerNode {
		fmt.Fprintf(h, "%s %+v %+v\n", n.ID, n.Client, n.Upstream)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func (w *vtimeInst) measure(ctx context.Context, d time.Duration, traced bool, m *measurement) {
	m.loop(ctx, d, 1, func(_, seq int) (int64, error) {
		root := w.e.tracer.StartRoot("bench", fmt.Sprintf("vtime_flood flood %d", seq))
		defer root.End()
		sp := root.StartChild("core.RunClusterFlood")
		res, err := w.flood(ctx, traced)
		sp.End()
		if err != nil {
			return vtimeClients, err
		}
		switch {
		case res.Requests != vtimeClients:
			return vtimeClients, fmt.Errorf("vtime_flood: %d requests for %d clients", res.Requests, vtimeClients)
		case res.Failures != 0:
			return vtimeClients, fmt.Errorf("vtime_flood: %d failures", res.Failures)
		case floodDigest(res) != w.digest:
			return vtimeClients, fmt.Errorf("vtime_flood: flood %d digest %s differs from the first flood's %s",
				seq, floodDigest(res), w.digest)
		}
		return vtimeClients, nil
	})
}
