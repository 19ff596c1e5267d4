package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/httpwire"
	"repro/internal/multipart"
	"repro/internal/netsim"
	"repro/internal/origin"
	"repro/internal/ranges"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vendor"
	"repro/internal/vtime"
)

// Layer probes: each layer of the program is called directly, through
// the public functions it already has, with the inputs the workloads
// send it. Every probe runs under a span of the benchmark's tracer, so
// the trace file shows the probe pass next to the workload's units.

const (
	probeBudget  = 30 * time.Millisecond // timed calls per probe
	probeBatches = 7                     // the median batch is reported
	vtimeEvents  = 1_000_000             // population of the vtime probes
)

// prober runs probes under one tracer and collects their metrics.
type prober struct {
	tr  *trace.Tracer
	out map[string]metric
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// perOp calls fn in batches for about probeBudget in total and returns
// the median batch's time per call and the mean bytes allocated per
// call.
func (p *prober) perOp(name string, fn func()) (ns, allocB float64) {
	root := p.tr.StartRoot("bench", "probe "+name)
	defer root.End()
	t0 := time.Now()
	fn() // also warms pools and lazily built tables
	once := time.Since(t0)
	batch := int(probeBudget / probeBatches / max(once, time.Nanosecond))
	batch = max(1, min(batch, 1<<20))
	var (
		perCall []float64
		mem     runtime.MemStats
	)
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	for b := 0; b < probeBatches; b++ {
		sp := root.StartChild(name)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(batch))
		sp.End()
	}
	runtime.ReadMemStats(&mem)
	return median(perCall), float64(mem.TotalAlloc-alloc0) / float64(batch*probeBatches)
}

// once times a single call of fn under a span.
func (p *prober) once(name string, fn func() error) (time.Duration, error) {
	root := p.tr.StartRoot("bench", "probe "+name)
	defer root.End()
	sp := root.StartChild(name)
	defer sp.End()
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

func mbPerSec(bytes int, ns float64) float64 { return float64(bytes) / (1 << 20) / (ns / 1e9) }

// layerProbes measures every layer below core and returns the first
// error a probe's own sanity check raised.
func (p *prober) layerProbes(ctx context.Context, rangeHeaders []string) error {
	for _, probe := range []func() error{
		func() error { return p.ranges(rangeHeaders) },
		p.httpwire, p.multipart, p.resource, p.origin, p.netsim, p.cache, p.cdn, p.core,
		func() error { return p.vtime(ctx) },
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) ranges(headers []string) error {
	const size = 1 << 20
	for _, h := range headers {
		if _, err := ranges.Parse(h); err != nil {
			return fmt.Errorf("ranges probe: workload header does not parse: %w", err)
		}
	}
	ns, alloc := p.perOp("ranges.Parse+Resolve", func() {
		for _, h := range headers {
			set, _ := ranges.Parse(h)
			set.Resolve(size)
		}
	})
	n := float64(len(headers))
	p.set("ranges.parse_ns", ns/n, "ns")
	p.set("ranges.parse_alloc_b", alloc/n, "B")
	return nil
}

func (p *prober) httpwire() error {
	req := core.NewAttackRequest(core.TargetPath + "?cb=probe")
	req.Headers.Add("Range", "bytes=0-0")
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	var rtErr error
	ns, _ := p.perOp("httpwire.Request round trip", func() {
		buf.Reset()
		if _, err := req.WriteTo(&buf); err != nil {
			rtErr = err
		}
		br.Reset(&buf)
		if _, err := httpwire.ReadRequest(br, httpwire.Limits{}); err != nil {
			rtErr = err
		}
	})
	if rtErr != nil {
		return fmt.Errorf("httpwire probe: %w", rtErr)
	}
	p.set("httpwire.req_rt_ns", ns, "ns")

	// Bytes allocated per body byte, and the copy rates at 1 MiB.
	wns, rns, ratio, err := p.responseCosts(1 << 20)
	if err != nil {
		return err
	}
	p.set("httpwire.resp_write_mb_s", mbPerSec(1<<20, wns), "MiB/s")
	p.set("httpwire.resp_read_mb_s", mbPerSec(1<<20, rns), "MiB/s")
	p.set("httpwire.resp_alloc_ratio", ratio, "ratio")
	if _, _, ratio, err = p.responseCosts(25 << 20); err != nil {
		return err
	}
	p.set("httpwire.resp_alloc_ratio_25m", ratio, "ratio")
	return nil
}

// responseCosts serializes and parses back one response with a body of
// size bytes: time per Response.WriteTo, time per ReadResponse, and the
// bytes the pair allocates per body byte.
func (p *prober) responseCosts(size int) (writeNS, readNS, allocRatio float64, err error) {
	resp := httpwire.NewResponse(httpwire.StatusOK)
	resp.Headers.Add("Content-Type", core.OctetStream)
	resp.SetBody(resource.Synthetic("/probe.bin", int64(size), core.OctetStream).Data)
	var wire bytes.Buffer
	if _, err := resp.WriteTo(&wire); err != nil {
		return 0, 0, 0, err
	}
	// Written into a buffer that already has the room: the copy is what
	// a body costs on the way out, and io.Discard would skip it.
	sink := bytes.NewBuffer(make([]byte, 0, wire.Len()))
	label := fmt.Sprintf(" %dMiB", size>>20)
	writeNS, writeAlloc := p.perOp("httpwire.Response.WriteTo"+label, func() {
		sink.Reset()
		resp.WriteTo(sink) //nolint:errcheck // a bytes.Buffer cannot fail
	})
	rd := bytes.NewReader(wire.Bytes())
	br := bufio.NewReader(rd)
	var readErr error
	readNS, readAlloc := p.perOp("httpwire.ReadResponse"+label, func() {
		rd.Reset(wire.Bytes())
		br.Reset(rd)
		got, err := httpwire.ReadResponse(br, httpwire.Limits{})
		if err == nil && got.BodySize() != int64(size) {
			err = fmt.Errorf("read %d body bytes, want %d", got.BodySize(), size)
		}
		if err != nil {
			readErr = err
		}
	})
	if readErr != nil {
		return 0, 0, 0, fmt.Errorf("httpwire probe: %w", readErr)
	}
	return writeNS, readNS, (writeAlloc + readAlloc) / float64(size), nil
}

// plannedOBR is the Cloudflare -> Akamai cascade's planned request, the
// shape the multipart and origin OBR probes replay.
func plannedOBR() (n int, header string) {
	plan := core.PlanMaxN(vendor.Cloudflare(), vendor.Akamai(), core.TargetPath)
	return plan.N, core.BuildOverlappingRange(plan.FirstToken, plan.N)
}

func (p *prober) multipart() error {
	n, _ := plannedOBR()
	data := resource.Synthetic(core.TargetPath, 1024, core.OctetStream).Data
	msg := &multipart.Message{Boundary: multipart.DefaultBoundary, CompleteLength: int64(len(data))}
	for i := 0; i < n; i++ {
		msg.Parts = append(msg.Parts, multipart.Part{
			ContentType: core.OctetStream,
			Window:      ranges.Resolved{Offset: 0, Length: int64(len(data))},
			Data:        data,
		})
	}
	size := msg.EncodedSize()
	if written, err := msg.WriteTo(io.Discard); err != nil || written != size {
		return fmt.Errorf("multipart probe: wrote %d of %d bytes: %v", written, size, err)
	}
	ns, _ := p.perOp("multipart.Message.WriteTo", func() { msg.WriteTo(io.Discard) }) //nolint:errcheck // checked above
	p.set("multipart.encode_mb_s", mbPerSec(int(size), ns), "MiB/s")
	ns, _ = p.perOp("multipart.Message.EncodedSize", func() { msg.EncodedSize() })
	p.set("multipart.encoded_size_ns", ns, "ns")
	return nil
}

func (p *prober) resource() error {
	ns, _ := p.perOp("resource.Synthetic 1MiB", func() { resource.Synthetic("/probe.bin", 1<<20, core.OctetStream) })
	p.set("resource.synthetic_ns", ns, "ns")
	r := resource.Synthetic("/probe.bin", 1<<20, core.OctetStream)
	if got := len(r.Slice(ranges.Resolved{Offset: 512, Length: 4096})); got != 4096 {
		return fmt.Errorf("resource probe: slice of %d bytes, want 4096", got)
	}
	ns, _ = p.perOp("resource.Slice", func() { r.Slice(ranges.Resolved{Offset: 512, Length: 4096}) })
	p.set("resource.slice_ns", ns, "ns")
	return nil
}

func (p *prober) origin() error {
	rt := core.NewRuntime()
	small := origin.NewServer(core.NewStoreWith(1024), origin.Config{RangeSupport: true, Metrics: rt.Metrics, Trace: rt.Trace})
	big := origin.NewServer(core.NewStoreWith(1<<20), origin.Config{RangeSupport: true, Metrics: rt.Metrics, Trace: rt.Trace})
	noRanges := origin.NewServer(core.NewStoreWith(1024), origin.Config{Metrics: rt.Metrics, Trace: rt.Trace})

	ranged := core.NewAttackRequest(core.TargetPath)
	ranged.Headers.Add("Range", "bytes=0-0")
	full := core.NewAttackRequest(core.TargetPath)
	_, obrHeader := plannedOBR()
	obr := core.NewAttackRequest(core.TargetPath)
	obr.Headers.Add("Range", obrHeader)

	if got := small.Handle(ranged).StatusCode; got != httpwire.StatusPartialContent {
		return fmt.Errorf("origin probe: ranged request answered %d", got)
	}
	if got := big.Handle(full).BodySize(); got != 1<<20 {
		return fmt.Errorf("origin probe: full request answered %d body bytes", got)
	}
	ns, alloc := p.perOp("origin.Server.Handle bytes=0-0", func() { small.Handle(ranged) })
	p.set("origin.handle_small_ns", ns, "ns")
	p.set("origin.handle_alloc_b", alloc, "B")
	ns, _ = p.perOp("origin.Server.Handle full 1MiB", func() { big.Handle(full) })
	p.set("origin.handle_full1m_ns", ns, "ns")
	ns, _ = p.perOp("origin.Server.Handle OBR header", func() { noRanges.Handle(obr) })
	p.set("origin.handle_obr_ns", ns, "ns")
	return nil
}

func (p *prober) netsim() error {
	reg := core.NewRuntime().Registry()
	seg := netsim.NewSegmentIn(reg, "probe")

	// 1 MiB through one bounded pipe, writer and reader on two
	// goroutines as in every topology.
	payload := resource.Synthetic("/probe.bin", 1<<20, core.OctetStream).Data
	sink := make([]byte, 64<<10)
	var pipeErr error
	ns, _ := p.perOp("netsim.Pipe 1MiB", func() {
		client, server := netsim.Pipe(seg, netsim.DefaultWindow)
		go func() {
			server.Write(payload) //nolint:errcheck // the reader notices a short transfer
			server.Close()
		}()
		var got int
		for {
			n, err := client.Read(sink)
			got += n
			if err != nil {
				break
			}
		}
		client.Close()
		if got != len(payload) {
			pipeErr = fmt.Errorf("netsim probe: %d of %d bytes crossed the pipe", got, len(payload))
		}
	})
	if pipeErr != nil {
		return pipeErr
	}
	p.set("netsim.pipe_mb_s", mbPerSec(len(payload), ns), "MiB/s")

	// Listen once; each call is Dial + Accept + both Closes.
	network := netsim.NewNetwork()
	l, err := network.Listen("probe.internal:80")
	if err != nil {
		return err
	}
	defer l.Close()
	var dialErr error
	ns, _ = p.perOp("netsim dial/accept/close", func() {
		accepted := make(chan netsim.Conn, 1)
		go func() {
			c, _ := l.Accept()
			accepted <- c
		}()
		c, err := network.Dial("probe.internal:80", seg)
		if err != nil {
			dialErr = err
			return
		}
		if s := <-accepted; s != nil {
			s.Close()
		}
		c.Close()
	})
	if dialErr != nil {
		return dialErr
	}
	p.set("netsim.dial_ns", ns, "ns")

	// 200 B ping-pong: the goroutine hand-off a small request pays on
	// every hop.
	client, server := netsim.Pipe(seg, netsim.DefaultWindow)
	defer client.Close()
	go func() {
		defer server.Close()
		buf := make([]byte, 200)
		for {
			if _, err := io.ReadFull(server, buf); err != nil {
				return
			}
			if _, err := server.Write(buf); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 200)
	var pingErr error
	ns, _ = p.perOp("netsim 200B round trip", func() {
		if _, err := client.Write(msg); err != nil {
			pingErr = err
		}
		if _, err := io.ReadFull(client, msg); err != nil {
			pingErr = err
		}
	})
	if pingErr != nil {
		return pingErr
	}
	p.set("netsim.smallmsg_rt_ns", ns, "ns")
	return nil
}

func (p *prober) cache() error {
	c := cache.New(cache.Config{IncludeQueryInKey: true, Metrics: core.NewRuntime().Registry()})
	obj := &cache.Object{Body: make([]byte, 1024), ContentType: core.OctetStream, Size: 1024}
	for i := 0; i < edgeCacheEntries; i++ {
		c.Put(core.TargetPath+"?cb=fill"+strconv.Itoa(i), obj)
	}
	hot := core.TargetPath + "?cb=fill" + strconv.Itoa(edgeCacheEntries-1)
	if _, ok := c.Get(hot); !ok {
		return fmt.Errorf("cache probe: warmed key missing")
	}
	ns, _ := p.perOp("cache.Get hit", func() { c.Get(hot) })
	p.set("cache.get_hit_ns", ns, "ns")
	var i int
	ns, _ = p.perOp("cache.Do miss at capacity", func() {
		i++
		c.Do(core.TargetPath+"?cb=miss"+strconv.Itoa(i), func() (*cache.Object, error) { return obj, nil }) //nolint:errcheck // the fetch cannot fail
	})
	p.set("cache.put_evict_ns", ns, "ns")
	if c.Len() != edgeCacheEntries {
		return fmt.Errorf("cache probe: %d entries after misses at capacity, want %d", c.Len(), edgeCacheEntries)
	}
	return nil
}

func (p *prober) cdn() error {
	rt := core.NewRuntime()
	topo, err := core.NewSBRTopology(vendor.Cloudflare(), core.NewStoreWith(1024), core.SBROptions{OriginRangeSupport: true, Runtime: rt})
	if err != nil {
		return err
	}
	defer topo.Close()
	hit := core.NewAttackRequest(core.TargetPath + "?cb=hot")
	hit.Headers.Add("Range", "bytes=0-0")
	if got := topo.Edge.Handle(hit).StatusCode; got != httpwire.StatusPartialContent {
		return fmt.Errorf("cdn probe: edge answered %d", got)
	}
	ns, _ := p.perOp("cdn.Edge.Handle hit", func() { topo.Edge.Handle(hit) })
	p.set("cdn.handle_hit_ns", ns, "ns")
	var i int
	ns, _ = p.perOp("cdn.Edge.Handle miss", func() {
		i++
		miss := core.NewAttackRequest(core.TargetPath + "?cb=cold" + strconv.Itoa(i))
		miss.Headers.Add("Range", "bytes=0-0")
		topo.Edge.Handle(miss)
	})
	p.set("cdn.handle_miss_ns", ns, "ns")

	ns, _ = p.perOp("metrics.Registry.Snapshot", func() { rt.Registry().Snapshot() })
	p.set("metrics.snapshot_us", ns/1e3, "us")
	return nil
}

func (p *prober) core() error {
	var setupErr error
	ns, _ := p.perOp("core.NewSBRTopology+Close", func() {
		topo, err := core.NewSBRTopology(vendor.Cloudflare(), core.NewStoreWith(1024), core.SBROptions{OriginRangeSupport: true, Runtime: core.NewRuntime()})
		if err != nil {
			setupErr = err
			return
		}
		topo.Close()
	})
	p.set("core.sbr_topology_setup_us", ns/1e3, "us")
	ns, _ = p.perOp("core.NewOBRTopology+Close", func() {
		topo, err := core.NewOBRTopologyOpts(vendor.Cloudflare(), vendor.Akamai(), core.NewStoreWith(1024), core.OBROptions{Runtime: core.NewRuntime()})
		if err != nil {
			setupErr = err
			return
		}
		topo.Close()
	})
	p.set("core.obr_topology_setup_us", ns/1e3, "us")
	if setupErr != nil {
		return setupErr
	}

	topo, err := core.NewSBRTopology(vendor.Cloudflare(), core.NewStoreWith(1<<20), core.SBROptions{OriginRangeSupport: true, Runtime: core.NewRuntime()})
	if err != nil {
		return err
	}
	defer topo.Close()
	var i int
	var runErr error
	ns, _ = p.perOp("core.RunSBR 1MiB", func() {
		i++
		if _, err := core.RunSBR(topo, core.TargetPath, 1<<20, "probe"+strconv.Itoa(i)); err != nil {
			runErr = err
		}
	})
	p.set("core.sbr_1m_ms", ns/1e6, "ms")
	return runErr
}

func (p *prober) vtime(ctx context.Context) error {
	// Scheduler alone: a million typed events, heaped and drained.
	var fired int
	d, err := p.once("vtime.Scheduler AtKind+Run", func() error {
		s := vtime.NewScheduler()
		kind := s.RegisterKind(func(uint64) { fired++ })
		for i := 0; i < vtimeEvents; i++ {
			// A multiplicative hash spreads the instants so the heap sees
			// neither sorted nor reverse-sorted input.
			s.AtKind(int64(uint32(i)*2654435761%uint32(time.Second)), kind, uint64(i))
		}
		return s.Run(ctx)
	})
	if err != nil || fired != vtimeEvents {
		return fmt.Errorf("vtime probe: %d of %d events fired: %v", fired, vtimeEvents, err)
	}
	p.set("vtime.sched_events_s", vtimeEvents/d.Seconds(), "1/s")

	// Replay core driven directly: a stub two-hop template, no
	// calibration, a million clients.
	var rep *vtime.Replay
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	d, err = p.once("vtime.Replay", func() error {
		s := vtime.NewScheduler()
		reg := core.NewRuntime().Registry()
		rep = vtime.NewReplay(s)
		path := rep.AddPath([]vtime.Hop{
			{Seg: vtime.NewSegmentBatch(s, netsim.NewSegmentIn(reg, "probe-upstream")), Link: vtime.NewSharedLink(s, vtime.LinkParams{})},
			{Seg: vtime.NewSegmentBatch(s, netsim.NewSegmentIn(reg, "probe-client")), Link: vtime.NewSharedLink(s, vtime.LinkParams{})},
		})
		tmpl := rep.AddTemplate(&vtime.Template{
			Reqs:  []vtime.ReqSample{{Hops: []vtime.Delta{{Up: 300, Down: 1 << 20, Conns: 1}, {Up: 200, Down: 800, Conns: 1}}}},
			Close: []vtime.Delta{{Closed: 1}, {Closed: 1}},
			Dials: 1,
		})
		for i := 0; i < vtimeEvents; i++ {
			rep.AddClient(time.Duration(uint32(i)*2654435761%uint32(time.Second)), tmpl, path)
		}
		return rep.Run(ctx)
	})
	if err != nil || rep.Counts.Requests != vtimeEvents {
		return fmt.Errorf("vtime probe: replayed %d of %d clients: %v", rep.Counts.Requests, vtimeEvents, err)
	}
	runtime.ReadMemStats(&mem)
	p.set("vtime.replay_clients_s", vtimeEvents/d.Seconds(), "1/s")
	p.set("vtime.alloc_b_per_client", float64(mem.TotalAlloc-alloc0)/vtimeEvents, "B")

	// Shared link under contention: capped bandwidth, so every transfer
	// is a flow entry on the link's own heap.
	var done int
	d, err = p.once("vtime.SharedLink.TransferEvent", func() error {
		s := vtime.NewScheduler()
		link := vtime.NewSharedLink(s, vtime.LinkParams{BytesPerSec: 125e6, Latency: time.Millisecond})
		kind := s.RegisterKind(func(uint64) { done++ })
		for i := 0; i < vtimeEvents; i++ {
			link.TransferEvent(800, kind, uint64(i))
		}
		return s.Run(ctx)
	})
	if err != nil || done != vtimeEvents {
		return fmt.Errorf("vtime probe: %d of %d transfers completed: %v", done, vtimeEvents, err)
	}
	p.set("vtime.link_transfers_s", vtimeEvents/d.Seconds(), "1/s")

	// Eight workers on four nodes is two per shape: calibration only,
	// nothing left to replay. This is the fixed cost of a vtime flood.
	d, err = p.once("core.RunClusterFlood calibration", func() error {
		_, err := core.RunClusterFlood(ctx, core.NewRuntime(), core.ClusterFloodOptions{
			Nodes: vtimeNodes, Workers: 2 * vtimeNodes, PerWorker: 1, KeepAlive: true,
			ResourceSize: 1 << 20, Engine: core.EngineVTime,
		})
		return err
	})
	if err != nil {
		return err
	}
	p.set("vtime.calibrate_ms", ms(d), "ms")
	return nil
}

// expProbes runs every registered experiment once, on its own, with the
// parameters exp_all uses. Their sum is exp_all's pass time.
func (p *prober) expProbes(ctx context.Context) error {
	for _, name := range exp.Names() {
		d, err := p.once("exp.Run "+name, func() error {
			_, err := exp.Run(ctx, name, exp.Params{Parallel: 1})
			return err
		})
		if err != nil {
			return fmt.Errorf("exp probe %s: %w", name, err)
		}
		p.set("exp."+name+"_ms", ms(d), "ms")
	}
	return nil
}

// campaignProbes runs the sweep once with a cell observer, then resumes
// over the finished directory: the write path and the load/verify path
// of the same layer.
func (p *prober) campaignProbes(ctx context.Context, root string) error {
	spec := sweepSpec()
	var cells []campaign.Cell
	d, err := p.once("campaign.Spec.Cells", func() error {
		var err error
		cells, err = spec.Cells()
		return err
	})
	if err != nil || len(cells) != sweepCells {
		return fmt.Errorf("campaign probe: expanded %d cells, want %d: %v", len(cells), sweepCells, err)
	}
	p.set("campaign.expand_ms", ms(d), "ms")

	base := filepath.Join(root, buildDirName)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "campaign-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// With one worker, the gap between two cell completions is the
	// later cell's whole cost: set-up, run, teardown, hash and write.
	byKind := map[string][]float64{}
	last := time.Now()
	if _, err := p.once("campaign.Run", func() error {
		_, err := campaign.Run(ctx, spec, campaign.RunOptions{Dir: dir, Parallel: 1,
			OnCell: func(c campaign.Cell, _ *campaign.CellResult, _ bool) {
				now := time.Now()
				kind := c.Config.Experiment
				if kind == campaign.KindFlood {
					kind += "_" + string(core.EnginePipe)
					if c.Config.Engine == string(core.EngineVTime) {
						kind = campaign.KindFlood + "_" + string(core.EngineVTime)
					}
				}
				byKind[kind] = append(byKind[kind], ms(now.Sub(last)))
				last = now
			}})
		return err
	}); err != nil {
		return err
	}
	for _, kind := range []string{"sbr", "flood_pipe", "flood_vtime", "obr"} {
		if len(byKind[kind]) == 0 {
			return fmt.Errorf("campaign probe: no %s cell observed", kind)
		}
		p.set("campaign.cell_"+kind+"_ms", median(byKind[kind]), "ms")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var written int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && strings.HasPrefix(ent.Name(), "cell-") {
			written += info.Size()
		}
	}
	p.set("campaign.bytes_written_per_cell", float64(written)/sweepCells, "B")

	var sum *campaign.Summary
	d, err = p.once("campaign.Run resume", func() error {
		var err error
		sum, err = campaign.Run(ctx, spec, campaign.RunOptions{Dir: dir, Parallel: 1, Resume: true})
		return err
	})
	if err != nil {
		return err
	}
	if sum.Skipped != sweepCells {
		return fmt.Errorf("campaign probe: resume skipped %d cells, want %d", sum.Skipped, sweepCells)
	}
	p.set("campaign.resume_cells_s", sweepCells/d.Seconds(), "1/s")
	return nil
}

// transportProbes measures the loopback TCP hop on its own against a
// running origind: connection set-up, and a whole 1 MiB response
// fetched straight from the origin, bypassing the edge. Subtracting the
// second from tcp_miss's unit_p50_ms leaves the edge's share.
func (p *prober) transportProbes(originAddr string) error {
	const samples = 200
	seg := netsim.NewSegmentIn(core.NewRuntime().Registry(), "probe-origin")
	head := httpwire.NewRequest("GET", tcpResource, core.AttackHost)
	head.Headers.Add("Range", "bytes=0-0")
	head.Headers.Add("Connection", "close")

	var setups, directs []float64
	root := p.tr.StartRoot("bench", "probe transport")
	defer root.End()
	for i := 0; i < samples; i++ {
		sp := root.StartChild("dial + first byte")
		t0 := time.Now()
		conn, err := transport.Dialer{}.Dial(originAddr, seg)
		if err != nil {
			return err
		}
		if _, err := head.WriteTo(conn); err != nil {
			conn.Close()
			return err
		}
		var first [1]byte
		_, err = io.ReadFull(conn, first[:])
		setups = append(setups, us(time.Since(t0)))
		sp.End()
		conn.Close()
		if err != nil {
			return fmt.Errorf("transport probe: %w", err)
		}
	}
	direct := origin.NewClient(transport.Dialer{}, originAddr, seg)
	defer direct.Close()
	full := httpwire.NewRequest("GET", tcpResource, core.AttackHost)
	for i := 0; i < samples; i++ {
		sp := root.StartChild("1MiB straight from origind")
		t0 := time.Now()
		resp, err := direct.Do(full)
		directs = append(directs, us(time.Since(t0)))
		sp.End()
		if err != nil {
			return err
		}
		if resp.BodySize() != tcpSize {
			return fmt.Errorf("transport probe: origind answered %d body bytes, want %d", resp.BodySize(), tcpSize)
		}
	}
	p.set("transport.conn_setup_us", median(setups), "us")
	p.set("transport.origin_direct_p50_us", median(directs), "us")
	return nil
}
