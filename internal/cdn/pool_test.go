package cdn

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/netsim"
	"repro/internal/origin"
	"repro/internal/resource"
	"repro/internal/vendor"
)

// newPoolRig is newRig with control over the edge Config (pooling,
// collapsing, a custom upstream dialer).
func newPoolRig(t *testing.T, profile *vendor.Profile, resourceSize int64, mutate func(*Config)) *rig {
	t.Helper()
	store := resource.NewStore()
	store.AddSynthetic("/target.bin", resourceSize, "application/octet-stream")
	osrv := origin.NewServer(store, origin.Config{RangeSupport: true})

	net := netsim.NewNetwork()
	originL, err := net.Listen("origin:80")
	if err != nil {
		t.Fatal(err)
	}
	go osrv.Serve(originL)
	t.Cleanup(func() { originL.Close() })

	originSeg := netsim.NewSegment("cdn-origin")
	cfg := Config{
		Profile:      profile,
		Network:      net,
		UpstreamAddr: "origin:80",
		UpstreamSeg:  originSeg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	edge, err := NewEdge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edge.Close() })
	edgeL, err := net.Listen("edge:80")
	if err != nil {
		t.Fatal(err)
	}
	go edge.Serve(edgeL)
	t.Cleanup(func() { edgeL.Close() })

	return &rig{
		net:       net,
		edge:      edge,
		origin:    osrv,
		clientSeg: netsim.NewSegment("client-cdn"),
		originSeg: originSeg,
	}
}

func TestPoolReusesUpstreamConn(t *testing.T) {
	r := newPoolRig(t, vendor.Cloudflare(), 4096, func(cfg *Config) {
		cfg.UpstreamPool = &PoolConfig{Size: 2}
	})
	for i := 0; i < 5; i++ {
		resp := r.get(t, "/target.bin?cb="+string(rune('a'+i)), "bytes=0-0")
		if resp.StatusCode != 206 {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
	}
	if n := len(r.origin.Log()); n != 5 {
		t.Fatalf("origin saw %d requests, want 5 (distinct cache busters)", n)
	}
	if conns := r.originSeg.Conns(); conns != 1 {
		t.Errorf("cdn-origin connections = %d, want 1 (all fetches pooled)", conns)
	}
	if idle := r.edge.IdleUpstreamConns(); idle != 1 {
		t.Errorf("idle pooled conns = %d, want 1", idle)
	}
}

func TestPoolPerRequestDialsWithoutPool(t *testing.T) {
	r := newPoolRig(t, vendor.Cloudflare(), 4096, nil)
	for i := 0; i < 3; i++ {
		r.get(t, "/target.bin?cb="+string(rune('a'+i)), "bytes=0-0")
	}
	if conns := r.originSeg.Conns(); conns != 3 {
		t.Errorf("cdn-origin connections = %d, want 3 (a dial per miss)", conns)
	}
}

func TestPoolIdleTimeoutEviction(t *testing.T) {
	now := time.Unix(1700000000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	r := newPoolRig(t, vendor.Cloudflare(), 4096, func(cfg *Config) {
		cfg.UpstreamPool = &PoolConfig{Size: 2, IdleTimeout: time.Minute, Now: clock}
	})
	r.get(t, "/target.bin?cb=a", "bytes=0-0")
	if idle := r.edge.IdleUpstreamConns(); idle != 1 {
		t.Fatalf("idle conns = %d, want 1", idle)
	}
	if live := r.originSeg.Live(); live != 1 {
		t.Fatalf("live upstream conns = %d, want 1", live)
	}

	advance(30 * time.Second)
	if reaped := r.edge.ReapIdleUpstream(); reaped != 0 {
		t.Fatalf("reaped %d conns before the timeout", reaped)
	}

	advance(31 * time.Second)
	if reaped := r.edge.ReapIdleUpstream(); reaped != 1 {
		t.Fatalf("reaped %d conns after the timeout, want 1", reaped)
	}
	if idle := r.edge.IdleUpstreamConns(); idle != 0 {
		t.Errorf("idle conns after reap = %d, want 0", idle)
	}
	if live := r.originSeg.Live(); live != 0 {
		t.Errorf("live upstream conns after reap = %d, want 0", live)
	}

	// The next miss redials rather than reusing the evicted socket.
	r.get(t, "/target.bin?cb=b", "bytes=0-0")
	if conns := r.originSeg.Conns(); conns != 2 {
		t.Errorf("total upstream dials = %d, want 2", conns)
	}
}

func TestPoolBrokenConnRedial(t *testing.T) {
	r := newPoolRig(t, vendor.Cloudflare(), 4096, func(cfg *Config) {
		cfg.UpstreamPool = &PoolConfig{Size: 2}
	})
	r.get(t, "/target.bin?cb=a", "bytes=0-0")

	// Kill the pooled socket under the pool (the origin's keep-alive
	// timeout firing between fetches).
	r.edge.pool.mu.Lock()
	if len(r.edge.pool.conns) != 1 {
		r.edge.pool.mu.Unlock()
		t.Fatalf("pool holds %d conns, want 1", len(r.edge.pool.conns))
	}
	r.edge.pool.conns[0].conn.Close()
	r.edge.pool.mu.Unlock()

	resp := r.get(t, "/target.bin?cb=b", "bytes=0-0")
	if resp.StatusCode != 206 {
		t.Fatalf("status after broken conn = %d, want 206 (transparent redial)", resp.StatusCode)
	}
	if n := len(r.origin.Log()); n != 2 {
		t.Errorf("origin saw %d requests, want 2", n)
	}
}

func TestPoolSurplusConnsClose(t *testing.T) {
	r := newPoolRig(t, vendor.Cloudflare(), 4096, func(cfg *Config) {
		cfg.UpstreamPool = &PoolConfig{Size: 1}
	})
	// Azure-style double fetch would exercise this naturally; simulate
	// by borrowing two conns directly and releasing both.
	p := r.edge.pool
	a, _, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	p.put(a)
	p.put(b) // over Size: must close, not pool
	if idle := p.IdleConns(); idle != 1 {
		t.Errorf("idle conns = %d, want 1 (surplus closed)", idle)
	}
	if live := r.originSeg.Live(); live != 1 {
		t.Errorf("live upstream conns = %d, want 1 (surplus closed)", live)
	}
}

// gatedDialer blocks the first dial until released, signalling when the
// leader has arrived, and counts every dial.
type gatedDialer struct {
	inner   UpstreamDialer
	arrived chan struct{} // closed when the first dial starts
	release chan struct{} // dials proceed once this closes
	dials   atomic.Int64
	once    sync.Once
}

func (d *gatedDialer) Dial(addr string, seg *netsim.Segment) (netsim.Conn, error) {
	d.dials.Add(1)
	d.once.Do(func() { close(d.arrived) })
	<-d.release
	return d.inner.Dial(addr, seg)
}

func TestCollapseSingleUpstreamFetch(t *testing.T) {
	const K = 8
	store := resource.NewStore()
	store.AddSynthetic("/target.bin", 4096, "application/octet-stream")
	osrv := origin.NewServer(store, origin.Config{RangeSupport: true})

	net := netsim.NewNetwork()
	originL, err := net.Listen("origin:80")
	if err != nil {
		t.Fatal(err)
	}
	go osrv.Serve(originL)
	defer originL.Close()

	gate := &gatedDialer{
		inner:   net,
		arrived: make(chan struct{}),
		release: make(chan struct{}),
	}
	edge, err := NewEdge(Config{
		Profile:      vendor.Cloudflare(),
		Dialer:       gate,
		UpstreamAddr: "origin:80",
		UpstreamSeg:  netsim.NewSegment("cdn-origin"),
		Collapse:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	edgeL, err := net.Listen("edge:80")
	if err != nil {
		t.Fatal(err)
	}
	go edge.Serve(edgeL)
	defer edgeL.Close()

	clientSeg := netsim.NewSegment("client-cdn")
	send := func() (*httpwire.Response, error) {
		req := httpwire.NewRequest("GET", "/target.bin", "site.example")
		req.Headers.Add("Range", "bytes=0-0")
		return origin.Fetch(net, "edge:80", clientSeg, req)
	}

	// The leader dials and parks on the gate; every request sent while
	// it is parked must join its flight rather than fetch on its own.
	leaderErr := make(chan error, 1)
	leaderResp := make(chan *httpwire.Response, 1)
	go func() {
		resp, err := send()
		leaderResp <- resp
		leaderErr <- err
	}()
	<-gate.arrived

	var wg sync.WaitGroup
	responses := make([]*httpwire.Response, K-1)
	errs := make([]error, K-1)
	for i := 0; i < K-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = send()
		}(i)
	}
	// Give the waiters time to park on the leader's flight, then let the
	// leader's upstream fetch proceed.
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	wg.Wait()

	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if resp := <-leaderResp; resp.StatusCode != 206 || len(resp.Body) != 1 {
		t.Fatalf("leader response = %d (%dB)", resp.StatusCode, len(resp.Body))
	}
	for i := 0; i < K-1; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if responses[i].StatusCode != 206 || len(responses[i].Body) != 1 {
			t.Fatalf("waiter %d response = %d (%dB)", i, responses[i].StatusCode, len(responses[i].Body))
		}
	}
	if dials := gate.dials.Load(); dials != 1 {
		t.Errorf("upstream dials = %d, want exactly 1 for %d concurrent misses", dials, K)
	}
	if n := len(osrv.Log()); n != 1 {
		t.Errorf("origin saw %d requests, want exactly 1", n)
	}
	st := edge.Cache().Stats()
	if got := st.Collapsed + st.Hits; got != K-1 {
		t.Errorf("collapsed(%d)+hits(%d) = %d, want %d", st.Collapsed, st.Hits, got, K-1)
	}
	if st.Collapsed == 0 {
		t.Errorf("no request collapsed onto the in-flight fetch (stats %+v)", st)
	}
}

func TestCollapseOffIsDefault(t *testing.T) {
	// Without Collapse the same concurrent miss pattern pays a fetch per
	// request — the measured per-request configuration.
	r := newPoolRig(t, vendor.Cloudflare(), 4096, nil)
	const K = 4
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httpwire.NewRequest("GET", "/miss-everytime?cb=same", "site.example")
			req.Headers.Add("Range", "bytes=0-0")
			origin.Fetch(r.net, "edge:80", r.clientSeg, req) //nolint:errcheck
		}()
	}
	wg.Wait()
	if st := r.edge.Cache().Stats(); st.Collapsed != 0 {
		t.Errorf("collapsed = %d without Collapse enabled", st.Collapsed)
	}
}

func TestHeadThroughEdges(t *testing.T) {
	// RFC 7230 §3.3.3: the reply to HEAD announces a Content-Length but
	// carries no body. Read as a GET reply, it would wait for 4096 body
	// bytes the origin never sends.
	for _, tc := range []struct {
		name    string
		profile *vendor.Profile
		rng     string
		status  int
		length  string
	}{
		{"deletion/cloudflare", vendor.Cloudflare(), "", httpwire.StatusOK, "4096"},
		{"laziness/cdn77", vendor.CDN77(), "bytes=2048-2058", httpwire.StatusPartialContent, "11"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPoolRig(t, tc.profile, 4096, func(cfg *Config) {
				cfg.UpstreamPool = &PoolConfig{Size: 1}
			})
			req := httpwire.NewRequest("HEAD", "/target.bin?cb=head", "site.example")
			if tc.rng != "" {
				req.Headers.Add("Range", tc.rng)
			}
			resp, err := origin.Fetch(r.net, "edge:80", r.clientSeg, req)
			if err != nil {
				t.Fatal(err)
			}
			if cl, _ := resp.Headers.Get("Content-Length"); resp.StatusCode != tc.status || cl != tc.length || len(resp.Body) != 0 {
				t.Fatalf("HEAD: status=%d Content-Length=%q body=%dB, want %d, %s, 0B",
					resp.StatusCode, cl, len(resp.Body), tc.status, tc.length)
			}
			// The pooled upstream connection the HEAD used stays in step:
			// the next GET reuses it and reads the right reply.
			resp = r.get(t, "/target.bin?cb=get", tc.rng)
			if resp.StatusCode != tc.status || strconv.Itoa(len(resp.Body)) != tc.length {
				t.Fatalf("GET after HEAD: status=%d body=%dB, want %d, %sB",
					resp.StatusCode, len(resp.Body), tc.status, tc.length)
			}
			if conns := r.originSeg.Conns(); conns != 1 {
				t.Errorf("cdn-origin connections = %d, want 1 (GET reused the HEAD's conn)", conns)
			}
		})
	}
}
