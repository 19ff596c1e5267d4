package origin

import (
	"bufio"
	"fmt"
	"sync"

	"repro/internal/httpwire"
	"repro/internal/netsim"
)

// Dialer abstracts how a client session reaches its server.
// netsim.Network (in-memory) and transport.Dialer (real TCP) both
// satisfy it.
type Dialer interface {
	Dial(addr string, seg *netsim.Segment) (netsim.Conn, error)
}

// Client is a keep-alive HTTP/1.1 client session: one persistent
// connection carrying many requests, redialed transparently when the
// peer drops it between exchanges. It is the attacker-side counterpart
// of the edge's upstream pool — a flood client multiplexing its
// requests over N Clients pays N dials total instead of one per
// request.
//
// A Client serializes its own exchanges with a mutex, so it is safe to
// share, but a flood wanting parallelism should run one Client per
// worker (the -conns model in cmd/attack).
type Client struct {
	dialer Dialer
	addr   string
	seg    *netsim.Segment

	mu     sync.Mutex
	conn   netsim.Conn
	br     *bufio.Reader
	closed bool

	dials    int64
	requests int64
}

// ClientStats is a snapshot of one session's connection economy.
type ClientStats struct {
	Dials    int64 // connections opened over the session's lifetime
	Requests int64 // exchanges completed
}

// NewClient returns an unconnected session; the first Do dials.
func NewClient(d Dialer, addr string, seg *netsim.Segment) *Client {
	return &Client{dialer: d, addr: addr, seg: seg}
}

// Do performs one request/response exchange over the persistent
// connection. The request is written as-is — in particular without
// Connection: close, so the server keeps the connection open. A reused
// connection that fails is presumed stale (the peer's keep-alive
// timeout fired between requests): Do redials once and retries. The
// caller's request headers are never mutated.
func (c *Client) Do(req *httpwire.Request) (*httpwire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("origin: client session closed")
	}
	reused := c.conn != nil
	if !reused {
		if err := c.dialLocked(); err != nil {
			return nil, err
		}
	}
	resp, err := c.exchangeLocked(req)
	if err != nil && reused {
		c.dropLocked()
		if err := c.dialLocked(); err != nil {
			return nil, err
		}
		resp, err = c.exchangeLocked(req)
	}
	if err != nil {
		c.dropLocked()
		return nil, err
	}
	c.requests++
	if !resp.KeepsConnReusable() {
		// The server announced close or used close-delimited framing;
		// the next Do starts from a fresh dial.
		c.dropLocked()
	}
	return resp, nil
}

// Stats returns the session's connection economy counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{Dials: c.dials, Requests: c.requests}
}

// Close drops the persistent connection and rejects further Dos.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	c.closed = true
	return nil
}

func (c *Client) dialLocked() error {
	conn, err := c.dialer.Dial(c.addr, c.seg)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.br = httpwire.GetReader(conn)
	c.dials++
	return nil
}

func (c *Client) dropLocked() {
	if c.conn == nil {
		return
	}
	httpwire.PutReader(c.br)
	c.br = nil
	c.conn.Close()
	c.conn = nil
}

// exchangeLocked writes req and parses one response on the session's
// connection. The reader is bound to the connection for its whole life
// so parse read-ahead survives into the next exchange.
func (c *Client) exchangeLocked(req *httpwire.Request) (*httpwire.Response, error) {
	if _, err := req.WriteTo(c.conn); err != nil {
		return nil, fmt.Errorf("write request: %w", err)
	}
	resp, _, err := httpwire.ReadResponseTo(c.br, httpwire.Limits{}, req.Method, -1, nil)
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	return resp, nil
}
