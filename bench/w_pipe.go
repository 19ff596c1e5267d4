package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/httpwire"
	"repro/internal/origin"
	"repro/internal/trace"
	"repro/internal/vendor"
)

const (
	pipeSmallClients = 2
	// edgeCacheEntries is cache.Config's default capacity, the one
	// every edge in this repository runs with.
	edgeCacheEntries = 4096
)

var pipeSmall = &workload{
	name: "pipe_small",
	why:  "smallest message, no dials: per-request cost of ranges, httpwire framing, edge logic, cache put+evict at capacity, origin and the netsim goroutine hand-off",
	loop: "closed, 2 clients,",
	op:   "request",
	unit: "request",
	tail: 0.99,
	setup: func(ctx context.Context, e *env) (instance, error) {
		rt := core.NewRuntime()
		rt.Trace = e.tracer
		topo, err := core.NewSBRTopology(vendor.Cloudflare(), core.NewStoreWith(1024), core.SBROptions{
			OriginRangeSupport: true,
			Runtime:            rt,
			UpstreamPool:       &cdn.PoolConfig{Size: pipeSmallClients},
		})
		if err != nil {
			return nil, err
		}
		w := &pipeSmallInst{
			e: e, rt: rt, topo: topo,
			rangeHeader: core.SBRExploit(topo.Profile.Name, 1024).RangeHeader,
			buster:      newBuster(e.seed),
		}
		for c := 0; c < pipeSmallClients; c++ {
			w.clients = append(w.clients, origin.NewClient(topo.Net, topo.EdgeAddr, topo.ClientSeg))
		}
		// Fill the edge cache to capacity so every timed request pays a
		// put and an LRU eviction, not a put into spare room.
		if err := w.warm(edgeCacheEntries); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	},
}

type pipeSmallInst struct {
	e           *env
	rt          *core.Runtime
	topo        *core.SBRTopology
	clients     []*origin.Client
	rangeHeader string
	buster      *buster
	wireSize    int // of the first response; every later one must match
}

func (w *pipeSmallInst) close() {
	for _, c := range w.clients {
		c.Close()
	}
	w.topo.Close()
}

func (w *pipeSmallInst) rangeHeaders() []string { return []string{w.rangeHeader} }

// request sends one cache-busted exploit request on client c. With a
// span, the request carries its context so the edge and origin spans
// join the benchmark's trace.
func (w *pipeSmallInst) request(c int, sp *trace.Span) (*httpwire.Response, error) {
	req := core.NewAttackRequest(core.TargetPath + "?cb=" + w.buster.next())
	req.Headers.Add("Range", w.rangeHeader)
	if sp != nil {
		trace.Inject(sp, &req.Headers)
	}
	return w.clients[c].Do(req)
}

func (w *pipeSmallInst) warm(n int) error {
	var (
		wg    sync.WaitGroup
		first = make([]error, len(w.clients))
	)
	resp, err := w.request(0, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != httpwire.StatusPartialContent {
		return fmt.Errorf("pipe_small: warm-up answered %d, want 206", resp.StatusCode)
	}
	w.wireSize = resp.WireSize()
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n/len(w.clients) && first[c] == nil; i++ {
				_, first[c] = w.request(c, nil)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range first {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *pipeSmallInst) measure(ctx context.Context, d time.Duration, traced bool, m *measurement) {
	before := w.rt.Registry().Snapshot()
	m.loop(ctx, d, len(w.clients), func(c, _ int) (int64, error) {
		var root, sp *trace.Span
		if traced {
			root = w.e.tracer.StartRoot("bench", "pipe_small request")
			sp = root.StartChild("origin.Client.Do")
		}
		resp, err := w.request(c, sp)
		sp.End()
		root.End()
		if err != nil {
			return 1, err
		}
		return 1, checkSmallReply(resp, w.wireSize)
	})
	m.counters = fromSnapshot(w.rt.Registry().Snapshot().Delta(before))
	// The workload claims every request is a miss served by exactly one
	// upstream fetch; the registry must say the same.
	if got := int64(total(m.counters, "cdn_upstream_fetches_total", nil)); got != m.attempted {
		m.failAll(fmt.Errorf("pipe_small: %d upstream fetches for %d requests", got, m.attempted))
	}
	if hits := total(m.counters, "cache_hits_total", nil); hits != 0 {
		m.failAll(fmt.Errorf("pipe_small: %v cache hits on unique keys", hits))
	}
}

// checkSmallReply is the per-response check of the request workloads:
// a 206 whose wire size equals the first response's.
func checkSmallReply(resp *httpwire.Response, wireSize int) error {
	if resp.StatusCode != httpwire.StatusPartialContent {
		return fmt.Errorf("status %d, want 206", resp.StatusCode)
	}
	if got := resp.WireSize(); got != wireSize {
		return fmt.Errorf("response wire size %d, want %d", got, wireSize)
	}
	return nil
}

// buster hands out cache-busting query values that are unique within a
// run and a function of the seed alone.
type buster struct {
	prefix string
	n      atomic.Int64
}

func newBuster(seed int64) *buster {
	return &buster{prefix: fmt.Sprintf("%08x", rand.New(rand.NewSource(seed)).Uint32())}
}

// next is on the load generator's hot path, so it avoids fmt.
func (b *buster) next() string { return b.prefix + "-" + strconv.FormatInt(b.n.Add(1), 10) }
