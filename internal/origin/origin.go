// Package origin implements the experiment's origin web server: the
// role Apache/2.4.18 plays in the paper. It serves synthetic resources
// over instrumented connections, with byte-range support that can be
// switched off (the OBR attacker disables range handling on the origin
// so it answers every request with a full 200 copy).
package origin

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpwire"
	"repro/internal/metrics"
	"repro/internal/multipart"
	"repro/internal/netsim"
	"repro/internal/ranges"
	"repro/internal/resource"
	"repro/internal/trace"
)

// traceNode labels the origin in span trees.
const traceNode = "origin"

// ServerSoftware is the Server header value, matching the paper's origin.
const ServerSoftware = "Apache/2.4.18 (Ubuntu)"

// fixedDate keeps serialized responses byte-identical across runs.
var fixedDate = time.Date(2020, time.June, 29, 12, 0, 0, 0, time.UTC)

// Config controls origin behaviour.
type Config struct {
	// RangeSupport enables byte-range handling. When false the origin
	// ignores Range headers entirely and never sends Accept-Ranges —
	// the configuration the OBR attacker forces.
	RangeSupport bool

	// MaxRangesPerRequest caps the ranges served from one multi-range
	// request (the post-Apache-Killer mitigation). 0 means unlimited.
	MaxRangesPerRequest int

	// Now supplies the Date header; nil means a fixed instant so that
	// responses are byte-deterministic.
	Now func() time.Time

	// FailAfterBodyBytes, when positive, makes the origin abort each
	// connection after writing that many body bytes — fault injection
	// for interrupted transfers (the situation range requests exist to
	// recover from, §II-B).
	FailAfterBodyBytes int64

	// Trace is the span sink; nil means trace.Default (disabled unless
	// configured). The origin joins the trace carried by an inbound
	// traceparent header, closing the attacker→edge→origin tree.
	Trace *trace.Tracer

	// Metrics is the registry the origin's response counters resolve
	// against at construction. Nil means metrics.Default — the
	// daemon-facing fallback so origind's /metrics keeps working;
	// per-run topologies inject their Runtime's registry here.
	Metrics *metrics.Registry
}

// ReceivedRequest records one request as seen by the origin, for the
// Table I/II comparisons between what the client sent and what the
// origin received.
type ReceivedRequest struct {
	Method      string
	Target      string
	RangeHeader string // "" when absent
	HasRange    bool
}

// Server is the origin HTTP server.
type Server struct {
	store  *resource.Store
	cfg    Config
	tracer *trace.Tracer

	mu  sync.Mutex
	log []ReceivedRequest

	wg      sync.WaitGroup
	stopMu  sync.Mutex
	stopped bool

	// Registry series, resolved at construction. mResponses is keyed by
	// the status codes the origin actually emits; unexpected codes fall
	// into the "other" series.
	mResponses map[int]*metrics.Counter
	mOther     *metrics.Counter
	mBodyBytes *metrics.Counter
	hBodySize  *metrics.Histogram
}

// NewServer returns an origin serving store with cfg.
func NewServer(store *resource.Store, cfg Config) *Server {
	if cfg.Now == nil {
		cfg.Now = func() time.Time { return fixedDate }
	}
	tracer := cfg.Trace
	if tracer == nil {
		tracer = trace.Default
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	const respName = "origin_responses_total"
	const respHelp = "Responses produced by the origin, by status code."
	mResponses := make(map[int]*metrics.Counter)
	for _, code := range []int{200, 206, 304, 404, 405, 416} {
		mResponses[code] = reg.Counter(respName, respHelp,
			metrics.L("status", strconv.Itoa(code)))
	}
	return &Server{
		store:      store,
		cfg:        cfg,
		tracer:     tracer,
		mResponses: mResponses,
		mOther:     reg.Counter(respName, respHelp, metrics.L("status", "other")),
		mBodyBytes: reg.Counter("origin_response_bytes_total",
			"Response body bytes produced by the origin."),
		hBodySize: reg.Histogram("origin_response_size_bytes",
			"Distribution of origin response body sizes."),
	}
}

// Log returns a copy of the received-request log.
func (s *Server) Log() []ReceivedRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReceivedRequest, len(s.log))
	copy(out, s.log)
	return out
}

// ResetLog clears the received-request log.
func (s *Server) ResetLog() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = nil
}

func (s *Server) record(req *httpwire.Request) {
	rangeVal, has := req.Headers.Get("Range")
	s.mu.Lock()
	s.log = append(s.log, ReceivedRequest{
		Method:      req.Method,
		Target:      req.Target,
		RangeHeader: rangeVal,
		HasRange:    has,
	})
	s.mu.Unlock()
}

// Serve accepts connections from l until the listener closes. It
// returns after in-flight connections finish.
func (s *Server) Serve(l *netsim.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			s.wg.Wait()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn handles one connection with HTTP/1.1 keep-alive semantics.
// The bufio wrappers come from the httpwire pools, so steady-state
// connection handling does not allocate per-connection I/O buffers.
func (s *Server) ServeConn(conn netsim.Conn) {
	defer conn.Close()
	br := httpwire.GetReader(conn)
	defer httpwire.PutReader(br)
	bw := httpwire.GetWriter(conn)
	defer httpwire.PutWriter(bw)
	for {
		req, err := httpwire.ReadRequest(br, httpwire.Limits{})
		if err != nil {
			return // EOF, peer close, or malformed request
		}
		resp := s.Handle(req)
		if s.cfg.FailAfterBodyBytes > 0 && resp.BodySize() > s.cfg.FailAfterBodyBytes {
			// Write the headers and a truncated body, then cut the
			// connection — an interrupted transfer. The body is
			// materialized (it may be streamed) and truncated in place;
			// Content-Length stays at the full size so the peer sees a
			// short read.
			full := resp.BodyBytes()
			resp.SetBody(full[:s.cfg.FailAfterBodyBytes])
			resp.Headers.Set("Content-Length", strconv.Itoa(len(full)))
			resp.WriteTo(bw) //nolint:errcheck
			bw.Flush()       //nolint:errcheck
			return
		}
		if _, err := resp.WriteTo(bw); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if v, _ := req.Headers.Get("Connection"); v == "close" {
			return
		}
	}
}

// Handle produces the response for one request. It is exported so tests
// and in-process harnesses can exercise origin logic without a transport.
// Under tracing it records the leaf span of the request tree, joining
// the trace the edge's back-to-origin fetch propagated.
func (s *Server) Handle(req *httpwire.Request) *httpwire.Response {
	var sp *trace.Span
	if s.tracer.Enabled() {
		sp = s.tracer.StartServer(trace.Extract(req.Headers), traceNode, req.Method+" "+req.Target)
		if sp.Recording() {
			if v, ok := req.Headers.Get("Range"); ok {
				if len(v) > 48 {
					v = v[:45] + "..."
				}
				sp.SetAttr("range", v)
			}
		}
	}
	resp := s.handle(req)
	if m := s.mResponses[resp.StatusCode]; m != nil {
		m.Inc()
	} else {
		s.mOther.Inc()
	}
	n := resp.BodySize()
	s.mBodyBytes.Add(n)
	s.hBodySize.Observe(n)
	if sp.Recording() {
		sp.SetAttrInt("status", int64(resp.StatusCode))
		sp.SetAttrInt("body_bytes", n)
	}
	sp.End()
	return resp
}

// handle is the request pipeline body.
func (s *Server) handle(req *httpwire.Request) *httpwire.Response {
	s.record(req)
	if req.Method != "GET" && req.Method != "HEAD" {
		return s.errorResponse(405, "method not allowed")
	}
	res, ok := s.store.Get(req.Path())
	if !ok {
		return s.errorResponse(httpwire.StatusNotFound, "not found")
	}

	// RFC 7232 conditional GET: a fresh cache revalidation gets a 304
	// (CDN edges revalidate cached objects this way).
	if s.notModified(res, req) {
		return s.notModifiedResponse(res)
	}

	rangeVal, hasRange := req.Headers.Get("Range")
	if !s.cfg.RangeSupport || !hasRange {
		return s.fullResponse(res, req.Method == "HEAD")
	}
	// RFC 7233 §3.2 If-Range: when the validator no longer matches, the
	// stored part is stale and the server answers with the full
	// representation instead of a 206 (how resumed downloads stay safe
	// across resource changes).
	if cond, ok := req.Headers.Get("If-Range"); ok && !s.ifRangeMatches(res, cond) {
		return s.fullResponse(res, req.Method == "HEAD")
	}
	set, err := ranges.Parse(rangeVal)
	if err != nil {
		// RFC 7233 §3.1: a server that cannot interpret the Range header
		// ignores it and answers 200.
		return s.fullResponse(res, req.Method == "HEAD")
	}
	resolved := set.Resolve(res.Size())
	if len(resolved) == 0 {
		return s.unsatisfiableResponse(res)
	}
	if s.cfg.MaxRangesPerRequest > 0 && len(resolved) > s.cfg.MaxRangesPerRequest {
		resolved = resolved[:s.cfg.MaxRangesPerRequest]
	}
	if len(resolved) == 1 {
		return s.singleRangeResponse(res, resolved[0], req.Method == "HEAD")
	}
	return s.multiRangeResponse(res, resolved, req.Method == "HEAD")
}

// notModified evaluates If-None-Match (preferred) and
// If-Modified-Since per RFC 7232 §6 precedence.
func (s *Server) notModified(res *resource.Resource, req *httpwire.Request) bool {
	if inm, ok := req.Headers.Get("If-None-Match"); ok {
		if inm == "*" || inm == res.ETag {
			return true
		}
		for _, candidate := range strings.Split(inm, ",") {
			if strings.TrimSpace(candidate) == res.ETag {
				return true
			}
		}
		return false
	}
	if ims, ok := req.Headers.Get("If-Modified-Since"); ok {
		if t, err := time.Parse(time.RFC1123, ims); err == nil {
			return !res.LastModified.UTC().After(t.UTC())
		}
	}
	return false
}

func (s *Server) notModifiedResponse(res *resource.Resource) *httpwire.Response {
	resp := httpwire.NewResponse(304)
	s.baseHeaders(resp, res)
	return resp
}

// ifRangeMatches reports whether an If-Range validator (entity-tag or
// HTTP-date) still matches the resource.
func (s *Server) ifRangeMatches(res *resource.Resource, cond string) bool {
	if cond == res.ETag {
		return true
	}
	if t, err := time.Parse(time.RFC1123, cond); err == nil {
		return !res.LastModified.UTC().After(t.UTC())
	}
	return false
}

// baseHeaders emits the Apache-style response header prefix, matching
// an Apache/2.4.18 default configuration with mod_expires enabled.
func (s *Server) baseHeaders(resp *httpwire.Response, res *resource.Resource) {
	resp.Headers.Add("Date", s.cfg.Now().UTC().Format(time.RFC1123))
	resp.Headers.Add("Server", ServerSoftware)
	if res != nil {
		resp.Headers.Add("Last-Modified", res.LastModified.UTC().Format(time.RFC1123))
		resp.Headers.Add("ETag", res.ETag)
	}
	if s.cfg.RangeSupport {
		resp.Headers.Add("Accept-Ranges", "bytes")
	}
	resp.Headers.Add("Cache-Control", "max-age=3600")
	resp.Headers.Add("Expires", s.cfg.Now().UTC().Add(time.Hour).Format(time.RFC1123))
	resp.Headers.Add("Vary", "Accept-Encoding")
	resp.Headers.Add("Keep-Alive", "timeout=5, max=100")
	resp.Headers.Add("Connection", "Keep-Alive")
}

func (s *Server) fullResponse(res *resource.Resource, head bool) *httpwire.Response {
	resp := httpwire.NewResponse(httpwire.StatusOK)
	s.baseHeaders(resp, res)
	resp.Headers.Add("Content-Type", res.ContentType)
	if head {
		resp.Headers.Add("Content-Length", strconv.FormatInt(res.Size(), 10))
		return resp
	}
	resp.SetBody(res.Data)
	return resp
}

func (s *Server) singleRangeResponse(res *resource.Resource, w ranges.Resolved, head bool) *httpwire.Response {
	resp := httpwire.NewResponse(httpwire.StatusPartialContent)
	s.baseHeaders(resp, res)
	resp.Headers.Add("Content-Range", w.ContentRange(res.Size()))
	resp.Headers.Add("Content-Type", res.ContentType)
	if head {
		resp.Headers.Add("Content-Length", strconv.FormatInt(w.Length, 10))
		return resp
	}
	resp.SetBody(res.Slice(w))
	return resp
}

func (s *Server) multiRangeResponse(res *resource.Resource, ws []ranges.Resolved, head bool) *httpwire.Response {
	msg := &multipart.Message{
		Boundary:       multipart.DefaultBoundary,
		CompleteLength: res.Size(),
	}
	for _, w := range ws {
		msg.Parts = append(msg.Parts, multipart.Part{
			ContentType: res.ContentType,
			Window:      w,
			Data:        res.Slice(w),
		})
	}
	resp := httpwire.NewResponse(httpwire.StatusPartialContent)
	s.baseHeaders(resp, res)
	resp.Headers.Add("Content-Type", msg.ContentTypeValue())
	if head {
		resp.Headers.Add("Content-Length", strconv.FormatInt(msg.EncodedSize(), 10))
		return resp
	}
	// The message streams its parts straight from the resource store's
	// backing array — the joined multipart body is never materialized.
	resp.SetBodyStream(msg, msg.EncodedSize())
	return resp
}

func (s *Server) unsatisfiableResponse(res *resource.Resource) *httpwire.Response {
	resp := httpwire.NewResponse(httpwire.StatusRangeNotSatisfiable)
	s.baseHeaders(resp, res)
	resp.Headers.Add("Content-Range", fmt.Sprintf("bytes */%d", res.Size()))
	resp.SetBody(nil)
	return resp
}

func (s *Server) errorResponse(code int, msg string) *httpwire.Response {
	resp := httpwire.NewResponse(code)
	s.baseHeaders(resp, nil)
	resp.Headers.Add("Content-Type", "text/plain")
	resp.SetBody([]byte(msg + "\n"))
	return resp
}

// Fetch performs one client request against addr over net and returns
// the parsed response. It is the minimal client used by tests. The
// caller's request is left exactly as it was handed in: the
// Connection: close this per-request client speaks is added for the
// write and restored afterwards, so a replayed request (the KeyCDN
// Repeat=2 case) carries the same headers on every send.
func Fetch(net *netsim.Network, addr string, seg *netsim.Segment, req *httpwire.Request) (*httpwire.Response, error) {
	return FetchTo(net, addr, seg, req, nil)
}

// FetchTo is Fetch with the response body streamed into the writer
// sink picks from the response head (see httpwire.BodySink).
func FetchTo(net *netsim.Network, addr string, seg *netsim.Segment, req *httpwire.Request, sink httpwire.BodySink) (*httpwire.Response, error) {
	conn, err := net.Dial(addr, seg)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	prev, had := req.Headers.Get("Connection")
	req.Headers.Set("Connection", "close")
	_, werr := req.WriteTo(conn)
	if had {
		req.Headers.Set("Connection", prev)
	} else {
		req.Headers.Del("Connection")
	}
	if werr != nil {
		return nil, werr
	}
	br := httpwire.GetReader(conn)
	defer httpwire.PutReader(br)
	resp, _, err := httpwire.ReadResponseTo(br, httpwire.Limits{}, req.Method, -1, sink)
	if err != nil && !errors.Is(err, netsim.ErrClosed) {
		return resp, err
	}
	return resp, nil
}
