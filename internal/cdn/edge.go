// Package cdn implements the CDN edge-node proxy engine. An Edge
// interprets a vendor.Profile: it checks the vendor's request-header
// limits, consults the edge cache, runs the vendor's back-to-origin
// Behaviour over an instrumented upstream connection, and builds the
// client-facing reply under the vendor's multi-range reply policy.
//
// Cascading two Edges (the FCDN's upstream address pointing at the
// BCDN's listener) reproduces the paper's Fig 3b topology for the OBR
// attack.
package cdn

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/httpwire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/ranges"
	"repro/internal/trace"
	"repro/internal/vendor"
)

// UpstreamDialer opens back-to-origin connections. netsim.Network and
// transport.Dialer both satisfy it.
type UpstreamDialer interface {
	Dial(addr string, seg *netsim.Segment) (netsim.Conn, error)
}

// Inspector screens inbound requests before the edge pipeline runs —
// the §VI-C detection mitigation (detect.Detector satisfies it).
type Inspector interface {
	Screen(req *httpwire.Request) (malicious bool, reason string)
}

// Config assembles an Edge.
type Config struct {
	Profile      *vendor.Profile
	Network      *netsim.Network // in-memory transport; used when Dialer is nil
	Dialer       UpstreamDialer  // overrides Network (e.g. real TCP)
	UpstreamAddr string          // origin (or BCDN) listener address
	UpstreamSeg  *netsim.Segment // segment the back-to-origin traffic counts on
	Cache        *cache.Cache    // nil builds a default cache from the profile
	DisableCache bool            // force every request to miss (malicious-customer config)
	Inspector    Inspector       // optional request screening (nil = off)
	Trace        *trace.Tracer   // span sink (nil = trace.Default, disabled unless configured)

	// UpstreamPool enables persistent back-to-origin connections: each
	// fetch borrows a pooled keep-alive connection instead of paying a
	// fresh dial/close cycle. Nil keeps the per-request dial path the
	// paper's per-connection observations were measured on.
	UpstreamPool *PoolConfig

	// Collapse enables singleflight request collapsing: concurrent
	// cache misses on one key trigger exactly one upstream fetch, the
	// rest wait and share the fetched object. Off by default — a
	// collapsing edge is a mitigation posture, not the measured one.
	Collapse bool

	// Metrics is the registry the edge's per-vendor series (and those of
	// the default cache and upstream pool it builds) resolve against at
	// construction. Nil means metrics.Default — the daemon-facing
	// fallback so cdnsim's /metrics keeps working; per-run topologies
	// inject their Runtime's registry here.
	Metrics *metrics.Registry
}

// Edge is one CDN edge node.
type Edge struct {
	profile      *vendor.Profile
	dialer       UpstreamDialer
	upstreamAddr string
	upstreamSeg  *netsim.Segment
	cache        *cache.Cache
	disableCache bool
	collapse     bool
	pool         *connPool // nil = dial per fetch
	state        *vendor.EdgeState
	inspector    Inspector
	tracer       *trace.Tracer
	node         string        // span/trace node label, "<vendor>-edge"
	bodies       *bodyRecycler // where borrowed upstream bodies are recycled

	// Per-vendor registry series, resolved once here so the request
	// path is pure atomic adds.
	mRequests       *metrics.Counter
	mRejectLimits   *metrics.Counter
	mRejectDetector *metrics.Counter
	mRejectOverlap  *metrics.Counter
	mUpstream       *metrics.Counter
	mTruncations    *metrics.Counter
	hDuration       *metrics.Histogram
}

// NewEdge builds an edge node for cfg.
func NewEdge(cfg Config) (*Edge, error) {
	dialer := cfg.Dialer
	if dialer == nil && cfg.Network != nil {
		dialer = cfg.Network
	}
	if cfg.Profile == nil || dialer == nil || cfg.UpstreamAddr == "" {
		return nil, errors.New("cdn: Profile, a transport (Network or Dialer) and UpstreamAddr are required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	c := cfg.Cache
	if c == nil {
		c = cache.New(cache.Config{IncludeQueryInKey: true, Metrics: reg})
	}
	tracer := cfg.Trace
	if tracer == nil {
		tracer = trace.Default
	}
	vend := metrics.L("vendor", cfg.Profile.Name)
	const rejectName = "cdn_rejections_total"
	const rejectHelp = "Requests refused before any upstream traffic, by reason."
	var pool *connPool
	if cfg.UpstreamPool != nil {
		pool = newConnPool(reg, *cfg.UpstreamPool, dialer, cfg.UpstreamAddr, cfg.UpstreamSeg, vend)
	}
	return &Edge{
		profile:      cfg.Profile,
		dialer:       dialer,
		upstreamAddr: cfg.UpstreamAddr,
		upstreamSeg:  cfg.UpstreamSeg,
		cache:        c,
		disableCache: cfg.DisableCache || !cfg.Profile.CacheByDefault,
		collapse:     cfg.Collapse,
		pool:         pool,
		state:        vendor.NewEdgeState(),
		inspector:    cfg.Inspector,
		tracer:       tracer,
		node:         cfg.Profile.Name + "-edge",
		bodies:       &sharedBodies,
		mRequests: reg.Counter("cdn_requests_total",
			"Requests handled by an edge, per vendor.", vend),
		mRejectLimits:   reg.Counter(rejectName, rejectHelp, vend, metrics.L("reason", "limits")),
		mRejectDetector: reg.Counter(rejectName, rejectHelp, vend, metrics.L("reason", "detector")),
		mRejectOverlap:  reg.Counter(rejectName, rejectHelp, vend, metrics.L("reason", "overlap")),
		mUpstream: reg.Counter("cdn_upstream_fetches_total",
			"Back-to-origin requests issued, per vendor.", vend),
		mTruncations: reg.Counter("cdn_upstream_truncations_total",
			"Upstream reads cut at a body limit (the Azure 8MiB rule), per vendor.", vend),
		hDuration: reg.Histogram("cdn_request_duration_us",
			"Edge request handling latency in microseconds, per vendor.", vend),
	}, nil
}

// Profile returns the edge's vendor profile.
func (e *Edge) Profile() *vendor.Profile { return e.profile }

// Cache returns the edge cache (for stats and test inspection).
func (e *Edge) Cache() *cache.Cache { return e.cache }

// Close releases the edge's pooled upstream connections. Safe on an
// edge without a pool, and safe to call more than once.
func (e *Edge) Close() error {
	if e.pool != nil {
		e.pool.Close()
	}
	return nil
}

// ReapIdleUpstream evicts pooled upstream connections idle past the
// pool's timeout, returning how many were dropped (0 without a pool).
func (e *Edge) ReapIdleUpstream() int {
	if e.pool == nil {
		return 0
	}
	return e.pool.ReapIdle()
}

// IdleUpstreamConns returns the pool's current idle connection count
// (0 without a pool).
func (e *Edge) IdleUpstreamConns() int {
	if e.pool == nil {
		return 0
	}
	return e.pool.IdleConns()
}

// Serve accepts connections until the listener closes.
func (e *Edge) Serve(l *netsim.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go e.ServeConn(conn)
	}
}

// ServeConn handles one client connection with keep-alive semantics.
// I/O buffers come from the httpwire pools so connection churn under a
// flood does not allocate per-connection. Each reply's borrowed
// upstream buffers go back to the recycler once it is written.
func (e *Edge) ServeConn(conn netsim.Conn) {
	defer conn.Close()
	br := httpwire.GetReader(conn)
	defer httpwire.PutReader(br)
	bw := httpwire.GetWriter(conn)
	defer httpwire.PutWriter(bw)
	for {
		req, err := httpwire.ReadRequest(br, httpwire.Limits{})
		if err != nil {
			return
		}
		resp, borrowed := e.serve(req)
		_, err = resp.WriteTo(bw)
		if err == nil {
			err = bw.Flush()
		}
		borrowed.release(e.bodies)
		if err != nil {
			return
		}
		if v, _ := req.Headers.Get("Connection"); v == "close" {
			return
		}
	}
}

// Handle runs the full edge pipeline for one request, accounting the
// request count and handling latency around the inner pipeline. When
// the tracer is enabled it opens this hop's server span, joining the
// trace carried by the request's traceparent header (or rooting a new
// one for un-contexted traffic). The reply may alias borrowed upstream
// buffers; Handle leaves them to the GC, as nothing tells it when the
// caller is done with the reply.
func (e *Edge) Handle(req *httpwire.Request) *httpwire.Response {
	resp, _ := e.serve(req)
	return resp
}

// serve is Handle that also returns the buffers the reply borrows, for
// a caller that releases them once the reply is written.
func (e *Edge) serve(req *httpwire.Request) (*httpwire.Response, borrowList) {
	e.mRequests.Inc()
	start := time.Now()
	var sp *trace.Span
	if e.tracer.Enabled() {
		sp = e.tracer.StartServer(trace.Extract(req.Headers), e.node, req.Method+" "+req.Target)
		if sp.Recording() {
			sp.SetAttr("vendor", e.profile.Name)
			if v, ok := req.Headers.Get("Range"); ok {
				sp.SetAttr("range", truncateNote(v))
			}
		}
	}
	resp, borrowed := e.handle(req, sp)
	if sp.Recording() {
		sp.SetAttrInt("status", int64(resp.StatusCode))
	}
	sp.End()
	e.hDuration.Observe(time.Since(start).Microseconds())
	return resp, borrowed
}

// handle is the edge pipeline body; sp is this hop's server span (nil
// when the request is not being traced). It returns the reply and the
// buffers the reply borrows.
func (e *Edge) handle(req *httpwire.Request, sp *trace.Span) (*httpwire.Response, borrowList) {
	sp.Eventf(trace.KindRequest, "%s %s range=%s", req.Method, req.Target, headerOr(req, "Range", "-"))
	if err := e.profile.Limits.Check(req); err != nil {
		sp.Eventf(trace.KindRejected, "header limits: %v", err)
		e.mRejectLimits.IncEx(sp.TraceIDString())
		return e.errorResponse(httpwire.StatusHeaderTooLarge, err.Error()), nil
	}
	if e.inspector != nil {
		if malicious, reason := e.inspector.Screen(req); malicious {
			sp.Eventf(trace.KindRejected, "detector: %s", reason)
			e.mRejectDetector.IncEx(sp.TraceIDString())
			return e.errorResponse(403, "request blocked: "+reason), nil
		}
	}

	rawRange, hasRange := req.Headers.Get("Range")
	var set ranges.Set
	if hasRange {
		if parsed, err := ranges.Parse(rawRange); err == nil {
			set = parsed
		}
	}

	// A rejecting edge (the RFC 7233 §6.1 mitigation) refuses obviously
	// overlapping multi-range requests before spending any upstream
	// traffic on them.
	if e.profile.MultiRangeReply == vendor.ReplyReject &&
		len(set) > 1 && set.OverlappingSpecs() {
		sp.Event(trace.KindRejected, "overlapping ranges (reject policy)")
		e.mRejectOverlap.IncEx(sp.TraceIDString())
		return e.errorResponse(httpwire.StatusBadRequest, "overlapping byte ranges rejected"), nil
	}

	cacheable := e.cacheUsable()
	key, keyOK := e.cache.Key(req.Target)
	cacheable = cacheable && keyOK

	if cacheable && e.collapse {
		return e.handleCollapsed(req, rawRange, hasRange, set, key, sp)
	}
	if cacheable {
		if obj, ok := e.cache.Get(req.Target); ok {
			sp.Eventf(trace.KindCacheHit, "%s (%dB cached)", req.Target, obj.Size)
			return e.replyFromObject(req, set, hasRange, cachedObject(obj)), nil
		}
		sp.Eventf(trace.KindCacheMiss, "%s", req.Target)
	}
	return e.fetchAndReply(req, rawRange, hasRange, set, key, sp, cacheable)
}

// handleCollapsed is the miss path under singleflight collapsing: the
// cache elects one leader per key to run the vendor behaviour; misses
// that land while it is in flight wait and serve the leader's object.
func (e *Edge) handleCollapsed(req *httpwire.Request, rawRange string, hasRange bool, set ranges.Set, key string, sp *trace.Span) (*httpwire.Response, borrowList) {
	// resp is set iff this request became the leader and ran the fetch
	// itself (its reply may be a relay or an error, neither of which a
	// cached object could reproduce).
	var resp *httpwire.Response
	var borrowed borrowList
	obj, collapsed, _ := e.cache.Do(req.Target, func() (*cache.Object, error) {
		sp.Eventf(trace.KindCacheMiss, "%s", req.Target)
		var ret *vendor.Retrieval
		var err error
		ret, borrowed, err = e.retrieve(req, rawRange, hasRange, set, key, sp)
		if err != nil {
			resp = e.errorResponse(httpwire.StatusBadGateway, err.Error())
			return nil, err
		}
		resp = e.replyToRetrieval(req, set, hasRange, ret, sp)
		return cacheableObject(ret), nil
	})
	if resp != nil {
		return resp, borrowed
	}
	if obj != nil {
		if collapsed {
			sp.Eventf(trace.KindCollapse, "%s served by in-flight fetch (%dB)", req.Target, obj.Size)
		} else {
			sp.Eventf(trace.KindCacheHit, "%s (%dB cached)", req.Target, obj.Size)
		}
		return e.replyFromObject(req, set, hasRange, cachedObject(obj)), nil
	}
	// The leader failed or produced an uncacheable outcome (relay,
	// partial object): fall back to a private fetch.
	sp.Eventf(trace.KindCacheMiss, "%s", req.Target)
	return e.fetchAndReply(req, rawRange, hasRange, set, key, sp, false)
}

// fetchAndReply runs the vendor behaviour for one miss, caches a
// complete 200 object when allowed, and builds the client reply.
func (e *Edge) fetchAndReply(req *httpwire.Request, rawRange string, hasRange bool, set ranges.Set, key string, sp *trace.Span, cacheable bool) (*httpwire.Response, borrowList) {
	ret, borrowed, err := e.retrieve(req, rawRange, hasRange, set, key, sp)
	if err != nil {
		return e.errorResponse(httpwire.StatusBadGateway, err.Error()), borrowed
	}
	if cacheable {
		if obj := cacheableObject(ret); obj != nil {
			e.cache.Put(req.Target, obj)
		}
	}
	return e.replyToRetrieval(req, set, hasRange, ret, sp), borrowed
}

// retrieve runs the vendor's back-to-origin behaviour for one request.
// It also returns the buffers the fetched bodies borrow, even when the
// behaviour fails.
func (e *Edge) retrieve(req *httpwire.Request, rawRange string, hasRange bool, set ranges.Set, key string, sp *trace.Span) (*vendor.Retrieval, borrowList, error) {
	rc := &vendor.RequestContext{
		Raw:      rawRange,
		HasRange: hasRange,
		Set:      set,
		Path:     req.Path(),
		SizeHint: e.state.SizeHint(req.Path()),
		State:    e.state,
		Key:      key,
	}
	up := &upstreamFetcher{edge: e, clientReq: req, span: sp}
	ret, err := e.profile.Behaviour(up, rc, &e.profile.Options)
	return ret, up.borrowed, err
}

// replyToRetrieval turns a behaviour outcome into the client reply.
func (e *Edge) replyToRetrieval(req *httpwire.Request, set ranges.Set, hasRange bool, ret *vendor.Retrieval, sp *trace.Span) *httpwire.Response {
	if ret.Relay != nil {
		sp.Eventf(trace.KindRelay, "HTTP %d, %dB body", ret.Relay.StatusCode, ret.Relay.BodySize())
		return e.relay(ret.Relay)
	}
	obj := ret.Object
	sp.Eventf(trace.KindReply, "object offset=%d size=%d complete=%v",
		obj.Offset, obj.CompleteSize, obj.Complete())
	return e.replyFromObject(req, set, hasRange, obj)
}

// cacheableObject converts a behaviour outcome into its cache entry, or
// nil when the outcome is not cacheable (a relay, an error status, or
// an incomplete object).
func cacheableObject(ret *vendor.Retrieval) *cache.Object {
	if ret.Relay != nil || ret.Object == nil {
		return nil
	}
	obj := ret.Object
	if !obj.Complete() || obj.UpstreamStatus != httpwire.StatusOK {
		return nil
	}
	return &cache.Object{Body: obj.Body, ContentType: obj.ContentType, Size: obj.CompleteSize}
}

// cachedObject adapts a cache entry back into the vendor object shape
// the reply builder consumes.
func cachedObject(obj *cache.Object) *vendor.Object {
	return &vendor.Object{Body: obj.Body, CompleteSize: obj.Size, ContentType: obj.ContentType}
}

// headerOr returns a header value or a placeholder.
func headerOr(req *httpwire.Request, name, placeholder string) string {
	if v, ok := req.Headers.Get(name); ok {
		return truncateNote(v)
	}
	return placeholder
}

// truncateNote keeps trace annotations short: OBR attack headers run to
// hundreds of KB and would otherwise dominate the trace buffer.
func truncateNote(v string) string {
	if len(v) > 48 {
		return v[:45] + "..."
	}
	return v
}

// cacheUsable reports whether this edge caches at all under its current
// configuration (Cloudflare's Bypass rule disables it, as does the
// malicious-customer DisableCache switch).
func (e *Edge) cacheUsable() bool {
	if e.disableCache {
		return false
	}
	if e.profile.Options.CloudflareBypass {
		return false
	}
	return true
}

// relay passes an upstream response to the client with this edge's
// headers appended (the Laziness path). The shallow clone shares the
// upstream body — nothing on the relay path mutates it, and for an OBR
// reply the body is the full n-part flood, so the deep copy here was
// one of the largest allocations per request. A borrowed body stays
// owned by the request's borrow list, never by the clone.
func (e *Edge) relay(upstream *httpwire.Response) *httpwire.Response {
	resp := upstream.CloneShared()
	for _, h := range e.profile.EdgeHeaders() {
		if !resp.Headers.Has(h.Name) {
			resp.Headers.Add(h.Name, h.Value)
		}
	}
	return resp
}

func (e *Edge) errorResponse(code int, msg string) *httpwire.Response {
	resp := httpwire.NewResponse(code)
	for _, h := range e.profile.EdgeHeaders() {
		resp.Headers.Add(h.Name, h.Value)
	}
	resp.Headers.Set("Content-Type", "text/plain")
	resp.SetBody([]byte(msg + "\n"))
	return resp
}

// upstreamFetcher implements vendor.Upstream over the edge's network.
type upstreamFetcher struct {
	edge      *Edge
	clientReq *httpwire.Request
	span      *trace.Span // the edge's server span; fetches become its children
	borrowed  borrowList  // recycled buffers this request's bodies were read into
}

var _ vendor.Upstream = (*upstreamFetcher)(nil)

// Fetch issues one back-to-origin request. On an edge whose cache is
// off nothing keeps the body beyond this request, so it is borrowed.
func (u *upstreamFetcher) Fetch(rangeHeader string, maxBody int64) (*httpwire.Response, bool, error) {
	return u.fetch(rangeHeader, maxBody, !u.edge.cacheUsable())
}

// Relay issues one back-to-origin request whose response goes to the
// client as is, so its body is always borrowed.
func (u *upstreamFetcher) Relay(rangeHeader string) (*httpwire.Response, error) {
	resp, _, err := u.fetch(rangeHeader, 0, true)
	return resp, err
}

// fetch issues one back-to-origin request; borrow reads a body of known
// size into a recycled buffer on the request's borrow list. Each fetch
// opens its own connection so the paper's per-connection traffic
// observations (Azure's two cdn-origin connections) hold. Under tracing,
// each fetch is a child span carrying the forwarded Range and the
// segment's byte delta — the per-hop view that makes Laziness (range
// forwarded, small fetch) vs Deletion (range deleted, full-object
// fetch) subtrees visibly different.
func (u *upstreamFetcher) fetch(rangeHeader string, maxBody int64, borrow bool) (*httpwire.Response, bool, error) {
	req := u.clientReq.Clone()
	req.Headers.Del("Range")
	if rangeHeader != "" {
		req.Headers.Add("Range", rangeHeader)
	}
	if u.edge.pool == nil {
		// Per-request mode closes the upstream connection after one
		// exchange; pooled mode keeps HTTP/1.1's implicit keep-alive.
		req.Headers.Set("Connection", "close")
	} else {
		// The clone may carry the client's own Connection: close; the
		// hop-by-hop header must not leak onto the persistent upstream
		// connection or the origin hangs up after every exchange.
		req.Headers.Del("Connection")
	}
	req.Headers.Add("Via", "1.1 "+u.edge.profile.Name)
	rangeNote := "(deleted)"
	if rangeHeader != "" {
		rangeNote = truncateNote(rangeHeader)
	}
	u.span.Eventf(trace.KindUpstream, "-> %s range=%s maxBody=%d",
		u.edge.upstreamAddr, rangeNote, maxBody)

	var usp *trace.Span
	var before netsim.Traffic
	if u.span.Recording() {
		usp = u.span.StartChild("fetch " + u.edge.upstreamAddr)
		usp.SetAttr("range", rangeNote)
		if seg := u.edge.upstreamSeg; seg != nil {
			usp.SetAttr("segment", seg.Name)
		}
		before = u.edge.upstreamSeg.Traffic()
	}
	// Replace (or, untraced, strip) the inbound traceparent so the next
	// hop parents to this fetch, never to a stale upstream context.
	trace.Inject(usp, &req.Headers)
	done := func(status int, truncated bool, err error) {
		if !usp.Recording() {
			return
		}
		d := u.edge.upstreamSeg.Since(before)
		usp.SetAttrInt("bytes_up", d.Up)
		usp.SetAttrInt("bytes_down", d.Down)
		if status != 0 {
			usp.SetAttrInt("status", int64(status))
		}
		if truncated {
			usp.SetAttrInt("truncated", 1)
		}
		if err != nil {
			usp.SetAttr("error", err.Error())
		}
		usp.End()
	}

	u.edge.mUpstream.Inc()
	limit := int64(-1)
	if maxBody > 0 {
		limit = maxBody
	}
	var sink httpwire.BodySink
	if borrow {
		sink = u.borrowBody
	}
	if u.edge.pool != nil {
		resp, truncated, err := u.fetchPooled(req, limit, sink)
		if err != nil {
			done(0, false, err)
			return nil, false, err
		}
		if truncated {
			u.edge.mTruncations.IncEx(u.span.TraceIDString())
		}
		done(resp.StatusCode, truncated, nil)
		return resp, truncated, nil
	}
	conn, err := u.edge.dialer.Dial(u.edge.upstreamAddr, u.edge.upstreamSeg)
	if err != nil {
		err = fmt.Errorf("dial upstream %s: %w", u.edge.upstreamAddr, err)
		done(0, false, err)
		return nil, false, err
	}
	defer conn.Close()
	if _, err := req.WriteTo(conn); err != nil {
		err = fmt.Errorf("write upstream request: %w", err)
		done(0, false, err)
		return nil, false, err
	}
	upr := httpwire.GetReader(conn)
	defer httpwire.PutReader(upr)
	resp, truncated, err := httpwire.ReadResponseTo(upr, httpwire.Limits{}, req.Method, limit, sink)
	if err != nil {
		err = fmt.Errorf("read upstream response: %w", err)
		done(0, false, err)
		return nil, false, err
	}
	if truncated {
		u.edge.mTruncations.IncEx(u.span.TraceIDString())
	}
	done(resp.StatusCode, truncated, nil)
	return resp, truncated, nil
}

// fetchPooled performs one exchange over a pooled persistent upstream
// connection. A reused connection that fails is presumed stale (the
// peer idle-closed it between fetches): it is evicted and the exchange
// retried once on a fresh dial. A connection left dirty by the exchange
// (truncated body, close-delimited framing, Connection: close) is
// discarded; a clean one goes back to the pool for the next fetch.
func (u *upstreamFetcher) fetchPooled(req *httpwire.Request, limit int64, sink httpwire.BodySink) (*httpwire.Response, bool, error) {
	pool := u.edge.pool
	pc, reused, err := pool.get()
	if err != nil {
		return nil, false, fmt.Errorf("dial upstream %s: %w", u.edge.upstreamAddr, err)
	}
	if reused {
		u.span.Eventf(trace.KindPool, "reuse upstream conn (%d idle)", pool.IdleConns())
	}
	resp, truncated, err := exchange(pc, req, limit, sink)
	if err != nil && reused {
		pool.discard(pc)
		u.span.Eventf(trace.KindPool, "stale pooled conn, redial: %v", err)
		pc, _, err = pool.dial()
		if err != nil {
			return nil, false, fmt.Errorf("dial upstream %s: %w", u.edge.upstreamAddr, err)
		}
		resp, truncated, err = exchange(pc, req, limit, sink)
	}
	if err != nil {
		pool.discard(pc)
		return nil, false, fmt.Errorf("pooled upstream exchange: %w", err)
	}
	if truncated || !resp.KeepsConnReusable() {
		pool.discard(pc)
	} else {
		pool.put(pc)
	}
	return resp, truncated, nil
}

// exchange writes one request and parses one response on a persistent
// connection, using the connection's own long-lived reader (parse
// read-ahead must survive into the next exchange).
func exchange(pc *pooledConn, req *httpwire.Request, limit int64, sink httpwire.BodySink) (*httpwire.Response, bool, error) {
	if _, err := req.WriteTo(pc.conn); err != nil {
		return nil, false, fmt.Errorf("write upstream request: %w", err)
	}
	return httpwire.ReadResponseTo(pc.br, httpwire.Limits{}, req.Method, limit, sink)
}
