package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestWriteAndWireSize(t *testing.T) {
	req := NewRequest("GET", "/1KB.jpg", "example.com")
	req.Headers.Add("Range", "bytes=0-0")
	var buf bytes.Buffer
	n, err := req.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := "GET /1KB.jpg HTTP/1.1\r\nHost: example.com\r\nRange: bytes=0-0\r\n\r\n"
	if buf.String() != want {
		t.Errorf("serialized = %q, want %q", buf.String(), want)
	}
	if int(n) != len(want) || req.WireSize() != len(want) {
		t.Errorf("n=%d WireSize=%d want %d", n, req.WireSize(), len(want))
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := NewRequest("GET", "/file?cb=123", "origin.test")
	req.Headers.Add("Range", "bytes=0-,0-,0-")
	req.Headers.Add("User-Agent", "rangeamp/1.0")
	var buf bytes.Buffer
	if _, err := req.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Target != "/file?cb=123" || got.Proto != Proto11 {
		t.Errorf("start line = %s %s %s", got.Method, got.Target, got.Proto)
	}
	if got.Path() != "/file" || got.Query() != "cb=123" || got.Host() != "origin.test" {
		t.Errorf("Path=%q Query=%q Host=%q", got.Path(), got.Query(), got.Host())
	}
	if v, _ := got.Headers.Get("Range"); v != "bytes=0-,0-,0-" {
		t.Errorf("Range = %q", v)
	}
}

func TestRequestNoQuery(t *testing.T) {
	req := NewRequest("GET", "/plain", "h")
	if req.Path() != "/plain" || req.Query() != "" {
		t.Errorf("Path=%q Query=%q", req.Path(), req.Query())
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := NewResponse(StatusPartialContent)
	resp.Headers.Add("Content-Type", "image/jpeg")
	resp.Headers.Add("Content-Range", "bytes 0-0/1000")
	resp.SetBody([]byte{0xff})
	var buf bytes.Buffer
	if _, err := resp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != resp.WireSize() {
		t.Errorf("wire bytes %d != WireSize %d", buf.Len(), resp.WireSize())
	}
	got, err := ReadResponse(bufio.NewReader(&buf), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 206 || got.Reason != "Partial Content" {
		t.Errorf("status = %d %q", got.StatusCode, got.Reason)
	}
	if !bytes.Equal(got.Body, []byte{0xff}) {
		t.Errorf("body = %v", got.Body)
	}
	if cr, _ := got.Headers.Get("Content-Range"); cr != "bytes 0-0/1000" {
		t.Errorf("Content-Range = %q", cr)
	}
}

func TestResponseSetBodySyncsContentLength(t *testing.T) {
	resp := NewResponse(StatusOK)
	resp.SetBody(make([]byte, 1234))
	if v, _ := resp.Headers.Get("Content-Length"); v != "1234" {
		t.Errorf("Content-Length = %q", v)
	}
	resp.SetBody(nil)
	if v, _ := resp.Headers.Get("Content-Length"); v != "0" {
		t.Errorf("Content-Length after nil = %q", v)
	}
}

func TestReadResponseUntilEOF(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nX-Server: apache\r\n\r\nhello world"
	got, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != "hello world" {
		t.Errorf("body = %q", got.Body)
	}
}

func TestReadResponseNoBodyStatuses(t *testing.T) {
	for _, code := range []string{"204 No Content", "304 Not Modified"} {
		raw := "HTTP/1.1 " + code + "\r\n\r\n"
		got, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)), Limits{})
		if err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		if len(got.Body) != 0 {
			t.Errorf("%s: body = %q", code, got.Body)
		}
	}
}

func TestReadResponseLimited(t *testing.T) {
	body := strings.Repeat("x", 1000)
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n" + body
	resp, truncated, err := ReadResponseTo(bufio.NewReader(strings.NewReader(raw)), Limits{}, "GET", 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(resp.Body) != 100 {
		t.Errorf("truncated=%v len=%d, want true,100", truncated, len(resp.Body))
	}
	// Limit above the body size: not truncated.
	resp, truncated, err = ReadResponseTo(bufio.NewReader(strings.NewReader(raw)), Limits{}, "GET", 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(resp.Body) != 1000 {
		t.Errorf("truncated=%v len=%d, want false,1000", truncated, len(resp.Body))
	}
}

func TestReadRequestErrors(t *testing.T) {
	tests := []struct {
		name string
		raw  string
	}{
		{"empty-start", "\r\n\r\n"},
		{"two-fields", "GET /x\r\n\r\n"},
		{"not-http", "GET /x FTP/1.0\r\n\r\n"},
		{"bad-header", "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n"},
		{"space-in-name", "GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n"},
		{"empty-name", "GET /x HTTP/1.1\r\n: v\r\n\r\n"},
		{"truncated", "GET /x HTTP/1.1\r\nHost: h"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadRequest(bufio.NewReader(strings.NewReader(tt.raw)), Limits{}); err == nil {
				t.Errorf("ReadRequest(%q) succeeded", tt.raw)
			}
		})
	}
}

func TestReadResponseErrors(t *testing.T) {
	tests := []struct {
		name string
		raw  string
	}{
		{"bad-status", "HTTP/1.1 xx OK\r\n\r\n"},
		{"status-out-of-range", "HTTP/1.1 99 OK\r\n\r\n"},
		{"not-http", "SPDY/1 200 OK\r\n\r\n"},
		{"bad-content-length", "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"},
		{"short-body", "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadResponse(bufio.NewReader(strings.NewReader(tt.raw)), Limits{}); err == nil {
				t.Errorf("ReadResponse(%q) succeeded", tt.raw)
			}
		})
	}
}

func TestHeaderLimitEnforced(t *testing.T) {
	raw := "GET /x HTTP/1.1\r\nBig: " + strings.Repeat("a", 10000) + "\r\n\r\n"
	_, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)), Limits{MaxHeaderBytes: 1024})
	if !errors.Is(err, ErrHeaderTooLarge) {
		t.Errorf("err = %v, want ErrHeaderTooLarge", err)
	}
}

func TestBodyLimitEnforced(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 2048\r\n\r\n" + strings.Repeat("a", 2048)
	_, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)), Limits{MaxBodyBytes: 1024})
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("err = %v, want ErrBodyTooLarge", err)
	}
}

func TestReasonPhrases(t *testing.T) {
	tests := []struct {
		code int
		want string
	}{
		{200, "OK"},
		{206, "Partial Content"},
		{416, "Range Not Satisfiable"},
		{431, "Request Header Fields Too Large"},
		{999, "Unknown"},
	}
	for _, tt := range tests {
		if got := ReasonPhrase(tt.code); got != tt.want {
			t.Errorf("ReasonPhrase(%d) = %q, want %q", tt.code, got, tt.want)
		}
	}
}

func TestRequestCloneIsDeep(t *testing.T) {
	req := NewRequest("GET", "/a", "h")
	req.Body = []byte("xyz")
	c := req.Clone()
	c.Headers.Set("Host", "other")
	c.Body[0] = 'Q'
	if req.Host() != "h" || req.Body[0] != 'x' {
		t.Error("Clone aliases the original")
	}
}

func TestResponseCloneIsDeep(t *testing.T) {
	resp := NewResponse(200)
	resp.SetBody([]byte("abc"))
	c := resp.Clone()
	c.Body[0] = 'Z'
	c.Headers.Set("Content-Length", "99")
	if resp.Body[0] != 'a' {
		t.Error("Clone aliases body")
	}
	if v, _ := resp.Headers.Get("Content-Length"); v != "3" {
		t.Error("Clone aliases headers")
	}
}

func TestWireSizeMatchesSerializationProperty(t *testing.T) {
	f := func(method, target, host, hname, hval string, body []byte) bool {
		clean := func(s string) string {
			s = strings.Map(func(r rune) rune {
				if r < 33 || r > 126 || r == ':' {
					return -1
				}
				return r
			}, s)
			if s == "" {
				return "x"
			}
			return s
		}
		req := NewRequest(clean(method), "/"+clean(target), clean(host))
		req.Headers.Add(clean(hname), clean(hval))
		req.Body = body
		var buf bytes.Buffer
		n, err := req.WriteTo(&buf)
		return err == nil && int(n) == req.WireSize() && buf.Len() == req.WireSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestResponseRoundTripProperty(t *testing.T) {
	f := func(body []byte) bool {
		resp := NewResponse(200)
		resp.Headers.Add("Accept-Ranges", "bytes")
		resp.SetBody(body)
		var buf bytes.Buffer
		if _, err := resp.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadResponse(bufio.NewReader(&buf), Limits{})
		if err != nil {
			return false
		}
		return bytes.Equal(got.Body, body) && got.WireSize() == resp.WireSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

var _ io.WriterTo = (*Request)(nil)
var _ io.WriterTo = (*Response)(nil)

func TestReadRequestWithBody(t *testing.T) {
	raw := "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "hello" {
		t.Errorf("body = %q", req.Body)
	}
}

func TestReadRequestWithChunkedBody(t *testing.T) {
	raw := "POST /x HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3\r\nabc\r\n0\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "abc" {
		t.Errorf("body = %q", req.Body)
	}
}
