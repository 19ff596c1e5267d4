package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ranges"
)

// goldenExperiments are the registry names whose text rendering is
// byte-deterministic and pinned under internal/exp/testdata/golden (sbr
// and bandwidth-all race in their Azure cells and have no golden).
var goldenExperiments = []string{
	"table1", "table2", "table3", "obr", "bandwidth",
	"mitigation", "corpus", "cost", "h2", "nodes", "vtimeflood",
}

// akamai25MBFactor is the Table IV cell every PR of this repository
// pins: Akamai, 25 MB resource.
const akamai25MBFactor = "43187"

var expAll = &workload{
	name: "exp_all",
	why:  "the paper reproduction a user runs (rangeamp -exp all): 1-25 MB bodies through netsim pipes and httpwire body reads",
	loop: "closed, 1 caller,",
	op:   "experiment",
	unit: "pass",
	setup: func(ctx context.Context, e *env) (instance, error) {
		dir := e.goldenDir
		if dir == "" {
			dir = filepath.Join(e.root, "internal", "exp", "testdata", "golden")
		}
		w := &expAllInst{e: e, golden: map[string]string{}}
		for _, name := range goldenExperiments {
			raw, err := os.ReadFile(filepath.Join(dir, name+".txt"))
			if err != nil {
				return nil, err
			}
			w.golden[name] = string(raw)
		}
		// One untimed pass: the synthetic-resource pattern slab, the
		// httpwire buffer pools and the heap reach their working size
		// before anything is timed.
		if _, err := exp.RunAll(ctx, exp.Params{Parallel: 1}); err != nil {
			return nil, err
		}
		return w, nil
	},
}

type expAllInst struct {
	e      *env
	golden map[string]string
}

func (w *expAllInst) close() {}

// rangeHeaders is the seeded RFC 7233 corpus the corpus experiment
// audits every vendor with, which is where exp_all parses ranges.
func (w *expAllInst) rangeHeaders() []string { return corpusHeaders() }

func corpusHeaders() []string {
	sets := core.NewCorpus(1, 200)
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = ranges.Set(s).HeaderValue()
	}
	return out
}

func (w *expAllInst) measure(ctx context.Context, d time.Duration, traced bool, m *measurement) {
	m.loop(ctx, d, 1, func(_, seq int) (int64, error) {
		root := w.e.tracer.StartRoot("bench", fmt.Sprintf("exp_all pass %d", seq))
		defer root.End()
		p := exp.Params{Parallel: 1}
		if traced {
			p.Trace = w.e.tracer
		}
		sp := root.StartChild("exp.RunAll")
		results, err := exp.RunAll(ctx, p)
		sp.End()
		ops := int64(len(exp.Names()))
		if err != nil {
			return ops, err
		}
		for _, r := range results {
			// The vtimeflood experiment replays connections onto segments
			// no edge ever served a request for; its counters would skew
			// the per-request ratios.
			if r.Name != "vtimeflood" {
				m.counters = append(m.counters, fromSnapshot(r.Result.Stats)...)
			}
		}
		sp = root.StartChild("check goldens")
		defer sp.End()
		return ops, w.check(results, traced)
	})
}

// check compares every byte-deterministic experiment with its golden
// file and the Akamai 25 MB cell of Table IV with the pinned factor.
// A traced pass is held to the factor only: a traced request carries a
// traceparent header, which the OBR planner budgets against the vendor
// header limits, so Table V legitimately plans a smaller n.
func (w *expAllInst) check(results []exp.NamedResult, traced bool) error {
	byName := map[string]*exp.Result{}
	for _, r := range results {
		byName[r.Name] = r.Result
	}
	for _, name := range goldenExperiments {
		r, ok := byName[name]
		if !ok {
			return fmt.Errorf("exp_all: experiment %s missing from the pass", name)
		}
		if traced {
			continue
		}
		var b strings.Builder
		if err := r.Render(&b); err != nil {
			return err
		}
		if b.String() != w.golden[name] {
			return fmt.Errorf("exp_all: %s rendered %d bytes that differ from its golden (%d bytes)",
				name, b.Len(), len(w.golden[name]))
		}
	}
	sbr, ok := byName["sbr"]
	if !ok || len(sbr.Tables) == 0 {
		return fmt.Errorf("exp_all: no Table IV in the pass")
	}
	for _, row := range sbr.Tables[0].Rows {
		if len(row) > 0 && row[0] == "Akamai" {
			if got := row[len(row)-1]; got != akamai25MBFactor {
				return fmt.Errorf("exp_all: Akamai 25 MB factor %s, want %s", got, akamai25MBFactor)
			}
			return nil
		}
	}
	return fmt.Errorf("exp_all: no Akamai row in Table IV")
}
