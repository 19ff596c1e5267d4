package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/vendor"
)

// sweepCells is what sweepSpec expands to: 52 sbr + 104 flood + 22 obr.
const sweepCells = 178

// sweepSpec crosses the three probe kinds with every vendor, both
// connection economies, collapsing on and off and both flood engines at
// 1 MB: hundreds of short-lived topologies.
func sweepSpec() campaign.Spec {
	return campaign.Spec{
		Name:        "bench-sweep",
		Experiments: []string{campaign.KindSBR, campaign.KindFlood, campaign.KindOBR},
		Axes: campaign.Axes{
			SizesMB:   []int{1},
			KeepAlive: []bool{false, true},
			Collapse:  []bool{false, true},
			Engines:   []string{"pipe", "vtime"},
		},
	}
}

var campaignSweep = &workload{
	name: "campaign_sweep",
	why:  "the same layers used the other way: hundreds of short-lived topologies, so topology set-up/teardown, netsim dial, vtime calibration and campaign hashing/JSON persistence dominate",
	loop: "closed, 1 caller,",
	op:   "cell",
	unit: "campaign run",
	setup: func(ctx context.Context, e *env) (instance, error) {
		base := filepath.Join(e.root, buildDirName)
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(base, "campaign-")
		if err != nil {
			return nil, err
		}
		w := &campaignInst{e: e, dir: dir}
		// The reference run every timed run is diffed against; it also
		// warms the buffer pools and the resource pattern slab.
		if _, err := w.run(ctx, "ref", nil); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	},
}

type campaignInst struct {
	e    *env
	dir  string // holds one sub-directory per campaign run
	runs int
}

func (w *campaignInst) close() { os.RemoveAll(w.dir) }

// rangeHeaders are the exploit headers of the 13 vendors at 1 MB, the
// Range values the sweep's sbr and flood cells send.
func (w *campaignInst) rangeHeaders() []string {
	var out []string
	for _, name := range vendor.Names() {
		out = append(out, core.SBRExploit(name, core.MiB).RangeHeader)
	}
	return out
}

// run executes the sweep into a fresh sub-directory and checks that
// every cell ran.
func (w *campaignInst) run(ctx context.Context, name string, onCell func(campaign.Cell, *campaign.CellResult, bool)) (string, error) {
	dir := filepath.Join(w.dir, name)
	sum, err := campaign.Run(ctx, sweepSpec(), campaign.RunOptions{Dir: dir, Parallel: 1, OnCell: onCell})
	if err != nil {
		return dir, err
	}
	if sum.Total != sweepCells || sum.Executed != sweepCells {
		return dir, fmt.Errorf("campaign_sweep: %d of %d cells executed, want %d", sum.Executed, sum.Total, sweepCells)
	}
	return dir, nil
}

func (w *campaignInst) measure(ctx context.Context, d time.Duration, _ bool, m *measurement) {
	ref := filepath.Join(w.dir, "ref")
	m.loop(ctx, d, 1, func(_, _ int) (int64, error) {
		w.runs++
		root := w.e.tracer.StartRoot("bench", fmt.Sprintf("campaign_sweep run %d", w.runs))
		defer root.End()
		sp := root.StartChild("campaign.Run")
		dir, err := w.run(ctx, fmt.Sprintf("run%d", w.runs), nil)
		sp.End()
		if err != nil {
			return sweepCells, err
		}
		// The simulation is deterministic: every run must reproduce the
		// reference run's numbers exactly.
		sp = root.StartChild("campaign.Diff")
		defer sp.End()
		diff, err := campaign.Diff(ref, dir, 0)
		if err != nil {
			return sweepCells, err
		}
		if !diff.Clean() {
			return sweepCells, fmt.Errorf("campaign_sweep: run %d differs from the reference run: %d missing, %d changed",
				w.runs, len(diff.Missing), len(diff.Changed))
		}
		return sweepCells, os.RemoveAll(dir)
	})
}
