package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Proto11 is the only protocol version this layer speaks.
const Proto11 = "HTTP/1.1"

// Errors shared by the parsers.
var (
	ErrMalformedStartLine = errors.New("httpwire: malformed start line")
	ErrMalformedHeader    = errors.New("httpwire: malformed header field")
	ErrHeaderTooLarge     = errors.New("httpwire: header block exceeds limit")
	ErrBodyTooLarge       = errors.New("httpwire: body exceeds limit")
)

// Limits bound message parsing. Zero fields mean the defaults below.
type Limits struct {
	MaxHeaderBytes int   // total header block, default 1 MiB
	MaxBodyBytes   int64 // default 256 MiB
}

const (
	defaultMaxHeaderBytes = 1 << 20
	defaultMaxBodyBytes   = 256 << 20
)

func (l Limits) header() int {
	if l.MaxHeaderBytes > 0 {
		return l.MaxHeaderBytes
	}
	return defaultMaxHeaderBytes
}

func (l Limits) body() int64 {
	if l.MaxBodyBytes > 0 {
		return l.MaxBodyBytes
	}
	return defaultMaxBodyBytes
}

// Request is an HTTP/1.1 request with exact wire representation.
type Request struct {
	Method  string
	Target  string // origin-form: path with optional ?query
	Proto   string
	Headers Headers
	Body    []byte
}

// NewRequest returns a GET request for target against host.
func NewRequest(method, target, host string) *Request {
	r := &Request{Method: method, Target: target, Proto: Proto11}
	r.Headers.Add("Host", host)
	return r
}

// Host returns the Host header value.
func (r *Request) Host() string {
	v, _ := r.Headers.Get("Host")
	return v
}

// Path returns the target without its query string.
func (r *Request) Path() string {
	if i := strings.IndexByte(r.Target, '?'); i >= 0 {
		return r.Target[:i]
	}
	return r.Target
}

// Query returns the raw query string (without '?'), or "".
func (r *Request) Query() string {
	if i := strings.IndexByte(r.Target, '?'); i >= 0 {
		return r.Target[i+1:]
	}
	return ""
}

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	out := &Request{Method: r.Method, Target: r.Target, Proto: r.Proto, Headers: r.Headers.Clone()}
	if r.Body != nil {
		out.Body = append([]byte(nil), r.Body...)
	}
	return out
}

// StartLineSize returns the exact size of "METHOD SP target SP proto\r\n".
func (r *Request) StartLineSize() int {
	return len(r.Method) + 1 + len(r.Target) + 1 + len(r.Proto) + 2
}

// WireSize returns the exact serialized size of the request.
func (r *Request) WireSize() int {
	return r.StartLineSize() + r.Headers.WireSize() + 2 + len(r.Body)
}

// WriteTo serializes the request. It does not add framing headers; set
// Content-Length yourself if the request has a body.
func (r *Request) WriteTo(w io.Writer) (int64, error) {
	return writeMessage(w, r.Method+" "+r.Target+" "+r.Proto, r.Headers, r.Body)
}

// Response is an HTTP/1.1 response with exact wire representation.
//
// A response body is either a materialized Body slice or a streamed
// body installed with SetBodyStream/WriteBodyReader. Streamed bodies
// are serialized directly to the destination writer at WriteTo time —
// the joined body bytes are never built in memory — which is what keeps
// the BCDN's n-part OBR reply allocation-flat. Code that needs the
// bytes regardless of representation should use BodyBytes/BodySize.
type Response struct {
	Proto      string
	StatusCode int
	Reason     string
	Headers    Headers
	Body       []byte

	// stream, when non-nil, takes precedence over Body. streamSize is
	// its exact serialized size (the Content-Length).
	stream     io.WriterTo
	streamSize int64
}

// NewResponse returns a response with the canonical reason phrase.
func NewResponse(status int) *Response {
	return &Response{Proto: Proto11, StatusCode: status, Reason: ReasonPhrase(status)}
}

// StartLineSize returns the exact size of "proto SP code SP reason\r\n".
func (r *Response) StartLineSize() int {
	return len(r.Proto) + 1 + 3 + 1 + len(r.Reason) + 2
}

// WireSize returns the exact serialized size of the response.
func (r *Response) WireSize() int {
	return r.StartLineSize() + r.Headers.WireSize() + 2 + int(r.BodySize())
}

// HeaderSize returns the serialized size of everything except the body.
func (r *Response) HeaderSize() int {
	return r.StartLineSize() + r.Headers.WireSize() + 2
}

// BodySize returns the exact body size in bytes, whether the body is
// materialized or streamed.
func (r *Response) BodySize() int64 {
	if r.stream != nil {
		return r.streamSize
	}
	return int64(len(r.Body))
}

// SetBody installs body and keeps Content-Length in sync. Any
// previously installed body stream is dropped.
func (r *Response) SetBody(body []byte) {
	r.Body = body
	r.stream = nil
	r.streamSize = 0
	r.Headers.Set("Content-Length", strconv.Itoa(len(body)))
}

// SetBodyStream installs a streamed body of exactly size bytes and
// keeps Content-Length in sync. src is serialized directly to the
// destination writer at WriteTo time; it must write exactly size bytes
// and must be replayable if the response is written more than once
// (multipart.Message satisfies both).
func (r *Response) SetBodyStream(src io.WriterTo, size int64) {
	r.Body = nil
	r.stream = src
	r.streamSize = size
	r.Headers.Set("Content-Length", strconv.FormatInt(size, 10))
}

// WriteBodyReader installs a streamed body drawn from src, which must
// yield exactly size bytes. The reader is drained through a pooled
// transfer buffer at WriteTo time; unlike SetBodyStream the body is
// single-shot (the reader is consumed by the first write).
func (r *Response) WriteBodyReader(src io.Reader, size int64) {
	r.SetBodyStream(readerBody{src: src, n: size}, size)
}

// BodyStream returns the installed body stream, if any.
func (r *Response) BodyStream() (io.WriterTo, bool) {
	return r.stream, r.stream != nil
}

// BodyBytes returns the body as a byte slice, materializing a streamed
// body. Hot paths never call this on streamed responses; it exists for
// tests and fault-injection code that must inspect the exact bytes.
func (r *Response) BodyBytes() []byte {
	if r.stream == nil {
		return r.Body
	}
	var b bytes.Buffer
	b.Grow(int(r.streamSize))
	r.stream.WriteTo(&b) //nolint:errcheck // bytes.Buffer cannot fail
	return b.Bytes()
}

// KeepsConnReusable reports whether the connection this response was
// parsed from can carry another HTTP/1.1 exchange: the peer did not
// announce Connection: close, and the body's framing let the parser
// consume exactly the message (explicit Content-Length, a fully read
// chunked coding, or a status that forbids a body). Close-delimited
// responses read until EOF, so their connection is spent by definition.
func (r *Response) KeepsConnReusable() bool {
	if v, ok := r.Headers.Get("Connection"); ok && strings.EqualFold(v, "close") {
		return false
	}
	if !statusAllowsBody(r.StatusCode) {
		return true
	}
	if r.Headers.Has("Content-Length") {
		return true
	}
	if te, ok := r.Headers.Get("Transfer-Encoding"); ok && strings.Contains(strings.ToLower(te), "chunked") {
		return true
	}
	return false
}

// Clone returns a deep copy of the response. A streamed body is carried
// by reference (streams are replayable, not mutable), so cloning a
// streaming response stays cheap.
func (r *Response) Clone() *Response {
	out := &Response{Proto: r.Proto, StatusCode: r.StatusCode, Reason: r.Reason,
		Headers: r.Headers.Clone(), stream: r.stream, streamSize: r.streamSize}
	if r.Body != nil {
		out.Body = append([]byte(nil), r.Body...)
	}
	return out
}

// CloneShared returns a copy whose headers are independently mutable
// but whose body aliases the receiver's. This is the relay fast path:
// an edge that only appends headers before forwarding a response has no
// reason to copy a megabyte body it will never mutate. Callers must
// treat the shared body as read-only.
func (r *Response) CloneShared() *Response {
	return &Response{Proto: r.Proto, StatusCode: r.StatusCode, Reason: r.Reason,
		Headers: r.Headers.Clone(), Body: r.Body, stream: r.stream, streamSize: r.streamSize}
}

// WriteTo serializes the response. Streamed bodies are written straight
// from their source windows; the joined body is never materialized.
func (r *Response) WriteTo(w io.Writer) (int64, error) {
	line := r.Proto + " " + strconv.Itoa(r.StatusCode) + " " + r.Reason
	if r.stream != nil {
		total, err := writeMessage(w, line, r.Headers, nil)
		if err != nil {
			return total, err
		}
		n, err := r.stream.WriteTo(w)
		return total + n, err
	}
	return writeMessage(w, line, r.Headers, r.Body)
}

func writeMessage(w io.Writer, startLine string, hs Headers, body []byte) (int64, error) {
	sp := getScratch()
	b := (*sp)[:0]
	b = append(b, startLine...)
	b = append(b, '\r', '\n')
	for _, h := range hs {
		b = append(b, h.Name...)
		b = append(b, ':', ' ')
		b = append(b, h.Value...)
		b = append(b, '\r', '\n')
	}
	b = append(b, '\r', '\n')
	n, err := w.Write(b)
	*sp = b
	putScratch(sp)
	total := int64(n)
	if err != nil {
		return total, err
	}
	if len(body) > 0 {
		m, err := w.Write(body)
		total += int64(m)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadRequest parses one request from br using lim.
func ReadRequest(br *bufio.Reader, lim Limits) (*Request, error) {
	line, hdrBytes, err := readLine(br, lim.header())
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: %q", ErrMalformedStartLine, line)
	}
	req := &Request{Method: parts[0], Target: parts[1], Proto: parts[2]}
	req.Headers, err = readHeaders(br, lim.header()-hdrBytes)
	if err != nil {
		return nil, err
	}
	length, chunked, err := bodyFraming(req.Headers, lim)
	if err != nil {
		return nil, err
	}
	var body BodyBuffer
	if err := readBody(br, length, chunked, lim, false, -1, &body, nil); err != nil {
		return nil, err
	}
	req.Body = body.b
	return req, nil
}

// ReadResponse parses one response to a GET from br. Responses without
// a Content-Length are read until EOF (HTTP/1.1 close-delimited framing).
func ReadResponse(br *bufio.Reader, lim Limits) (*Response, error) {
	resp, _, err := ReadResponseTo(br, lim, "GET", -1, nil)
	return resp, err
}

// A BodySink picks where a response body goes once its head is parsed.
// size is the number of body bytes the read will transfer, or -1 when
// the framing does not say (chunked or close-delimited). A nil writer
// materializes the body into Response.Body; a *BodyBuffer does the same
// into memory the caller supplies; any other writer receives the bytes
// and leaves Body nil.
type BodySink func(head *Response, size int64) io.Writer

// ReadResponseTo parses the response to a method request from br and
// streams its body into the writer sink picks from the head (a nil sink
// materializes it). A response to HEAD, like a 1xx, 204 or 304, has no
// body whatever its framing headers announce (RFC 7230 §3.3.3).
//
// maxBody >= 0 stops consuming the body after that many bytes and
// reports truncated=true when the body was cut short. This models a
// proxy (Azure in §V-A) that closes its back-to-origin connection once
// it has seen enough payload.
func ReadResponseTo(br *bufio.Reader, lim Limits, method string, maxBody int64, sink BodySink) (resp *Response, truncated bool, err error) {
	line, hdrBytes, err := readLine(br, lim.header())
	if err != nil {
		return nil, false, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, false, fmt.Errorf("%w: %q", ErrMalformedStartLine, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 999 {
		return nil, false, fmt.Errorf("%w: status %q", ErrMalformedStartLine, parts[1])
	}
	resp = &Response{Proto: parts[0], StatusCode: code}
	if len(parts) == 3 {
		resp.Reason = parts[2]
	}
	resp.Headers, err = readHeaders(br, lim.header()-hdrBytes)
	if err != nil {
		return nil, false, err
	}
	if method == "HEAD" || !statusAllowsBody(code) {
		return resp, false, nil
	}
	length, chunked, err := bodyFraming(resp.Headers, lim)
	if err != nil {
		return resp, false, err
	}
	var body BodyBuffer
	mem, w := &body, io.Writer(nil)
	if sink != nil {
		size := length
		if maxBody >= 0 && maxBody < size {
			size = maxBody
		}
		if w = sink(resp, size); w != nil {
			if bb, ok := w.(*BodyBuffer); ok {
				mem, w = bb, nil
			} else {
				mem = nil
			}
		}
	}
	err = readBody(br, length, chunked, lim, true, maxBody, mem, w)
	if mem != nil {
		resp.Body = mem.b
	}
	truncated = errors.Is(err, errTruncated)
	if truncated {
		err = nil
	}
	return resp, truncated, err
}

var errTruncated = errors.New("httpwire: body truncated at read limit")

func statusAllowsBody(code int) bool {
	return code >= 200 && code != 204 && code != 304
}

// bodyFraming reads how a message delimits its body: a chunked coding,
// or length >= 0 bytes, or (length -1) no framing at all.
func bodyFraming(hs Headers, lim Limits) (length int64, chunked bool, err error) {
	if te, ok := hs.Get("Transfer-Encoding"); ok && strings.Contains(strings.ToLower(te), "chunked") {
		return -1, true, nil
	}
	cl, ok := hs.Get("Content-Length")
	if !ok {
		return -1, false, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(cl), 10, 64)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("%w: Content-Length %q", ErrMalformedHeader, cl)
	}
	if n > lim.body() {
		return 0, false, ErrBodyTooLarge
	}
	return n, false, nil
}

// readBody transfers one body framed as bodyFraming reported. The bytes
// go into mem when it is non-nil, read in place, and through w
// otherwise. A message without framing has no body unless untilEOF, in
// which case it runs to EOF. maxBody >= 0 cuts the body at that many
// bytes and reports errTruncated.
func readBody(br *bufio.Reader, length int64, chunked bool, lim Limits, untilEOF bool, maxBody int64, mem *BodyBuffer, w io.Writer) error {
	if chunked {
		return readChunkedBody(br, lim, maxBody, mem, w)
	}
	if length >= 0 {
		want := length
		if maxBody >= 0 && maxBody < want {
			want = maxBody
		}
		if _, err := transfer(br, want, mem, w); err != nil {
			return fmt.Errorf("httpwire: short body: %w", err)
		}
		if want < length {
			return errTruncated
		}
		return nil
	}
	if !untilEOF {
		return nil // requests without Content-Length have no body
	}
	limit := lim.body()
	if maxBody >= 0 && maxBody <= limit {
		limit = maxBody
	}
	r := io.LimitReader(br, limit)
	var n int64
	var err error
	if mem != nil {
		n, err = mem.readAll(r)
	} else {
		n, err = CopyBody(w, r)
	}
	if err != nil || n < limit {
		return err // n < limit: the peer closed, and that was the body
	}
	if _, err := br.ReadByte(); err != nil {
		if err == io.EOF {
			return nil
		}
		return err
	}
	if limit == maxBody {
		return errTruncated
	}
	return ErrBodyTooLarge
}

// readChunkedBody parses a chunked transfer coding (RFC 7230 §4.1):
// hex-size lines, chunk data, a zero-size terminator and an optional
// trailer section (discarded). Real-world origins stream this way, so
// the TCP demo tools can front servers we did not write.
func readChunkedBody(br *bufio.Reader, lim Limits, maxBody int64, mem *BodyBuffer, w io.Writer) error {
	var total int64
	for {
		line, _, err := readLine(br, 4096)
		if err != nil {
			return fmt.Errorf("httpwire: chunk size line: %w", err)
		}
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i] // drop chunk extensions
		}
		size, err := strconv.ParseInt(strings.TrimSpace(line), 16, 64)
		if err != nil || size < 0 {
			return fmt.Errorf("%w: chunk size %q", ErrMalformedHeader, line)
		}
		if size == 0 {
			// Discard any trailers up to the blank line.
			for {
				t, _, err := readLine(br, lim.header())
				if err != nil {
					return err
				}
				if t == "" {
					return nil
				}
			}
		}
		if total+size > lim.body() {
			return ErrBodyTooLarge
		}
		want := size
		if maxBody >= 0 && total+size > maxBody {
			want = maxBody - total
		}
		n, err := transfer(br, want, mem, w)
		total += n
		if err != nil {
			return fmt.Errorf("httpwire: short chunk: %w", err)
		}
		if want < size {
			return errTruncated
		}
		// Trailing CRLF after the chunk data.
		if _, _, err := readLine(br, 16); err != nil {
			return err
		}
	}
}

// transfer moves n body bytes from br into mem or, when mem is nil,
// through w. It fails like io.ReadFull when br ends early.
func transfer(br *bufio.Reader, n int64, mem *BodyBuffer, w io.Writer) (int64, error) {
	if mem != nil {
		return mem.readN(br, n)
	}
	got, err := CopyBody(w, io.LimitReader(br, n))
	if err == nil && got < n {
		err = io.ErrUnexpectedEOF
		if got == 0 {
			err = io.EOF
		}
	}
	return got, err
}

// BodyBuffer is a body sink that keeps the bytes in memory. A BodySink
// that returns one gets them back as Response.Body, read straight into
// the buffer's spare capacity, so a caller can recycle body memory
// across responses.
type BodyBuffer struct{ b []byte }

// NewBodyBuffer returns an empty buffer with room for n bytes.
func NewBodyBuffer(n int64) *BodyBuffer { return &BodyBuffer{b: make([]byte, 0, n)} }

// Write appends p.
func (bb *BodyBuffer) Write(p []byte) (int, error) {
	bb.b = append(bb.b, p...)
	return len(p), nil
}

// Cap returns how many bytes the buffer holds without growing.
func (bb *BodyBuffer) Cap() int64 { return int64(cap(bb.b)) }

// Reset empties the buffer and keeps its memory.
func (bb *BodyBuffer) Reset() { bb.b = bb.b[:0] }

// readN appends n bytes from r, growing the buffer at most once. An
// empty buffer grows with make, which skips zeroing memory fresh from
// the OS (a multi-megabyte body often gets some); appending chunk after
// chunk grows geometrically.
func (bb *BodyBuffer) readN(r io.Reader, n int64) (int64, error) {
	start := len(bb.b)
	if int64(cap(bb.b)-start) < n {
		if start == 0 {
			bb.b = make([]byte, 0, n)
		} else {
			bb.b = slices.Grow(bb.b, int(n))
		}
	}
	bb.b = bb.b[:start+int(n)]
	k, err := io.ReadFull(r, bb.b[start:])
	bb.b = bb.b[:start+k]
	return int64(k), err
}

// readAll appends r's bytes until EOF, growing as they arrive (a
// close-delimited body gives no size to allocate up front).
func (bb *BodyBuffer) readAll(r io.Reader) (int64, error) {
	start := len(bb.b)
	for {
		if len(bb.b) == cap(bb.b) {
			bb.b = slices.Grow(bb.b, 512)
		}
		k, err := r.Read(bb.b[len(bb.b):cap(bb.b)])
		bb.b = bb.b[:len(bb.b)+k]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return int64(len(bb.b) - start), err
		}
	}
}

// WriteChunked serializes a response using chunked transfer coding with
// the given chunk size, for tests that exercise the chunked read path.
func (r *Response) WriteChunked(w io.Writer, chunkSize int) (int64, error) {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	hs := r.Headers.Clone()
	hs.Del("Content-Length")
	hs.Set("Transfer-Encoding", "chunked")
	line := r.Proto + " " + strconv.Itoa(r.StatusCode) + " " + r.Reason
	total, err := writeMessage(w, line, hs, nil)
	if err != nil {
		return total, err
	}
	body := r.BodyBytes()
	for off := 0; off < len(body); off += chunkSize {
		end := off + chunkSize
		if end > len(body) {
			end = len(body)
		}
		n, err := fmt.Fprintf(w, "%x\r\n", end-off)
		total += int64(n)
		if err != nil {
			return total, err
		}
		m, err := w.Write(body[off:end])
		total += int64(m)
		if err != nil {
			return total, err
		}
		n, err = io.WriteString(w, "\r\n")
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	n, err := io.WriteString(w, "0\r\n\r\n")
	total += int64(n)
	return total, err
}

// readLine reads one CRLF- (or LF-) terminated line, bounded by max bytes.
// It returns the line without its terminator and the bytes consumed.
func readLine(br *bufio.Reader, max int) (string, int, error) {
	line, err := br.ReadString('\n')
	consumed := len(line)
	if err != nil {
		if err == io.EOF && line != "" {
			return "", consumed, io.ErrUnexpectedEOF
		}
		return "", consumed, err
	}
	if consumed > max {
		return "", consumed, ErrHeaderTooLarge
	}
	line = strings.TrimRight(line, "\r\n")
	return line, consumed, nil
}

func readHeaders(br *bufio.Reader, budget int) (Headers, error) {
	var hs Headers
	for {
		line, n, err := readLine(br, budget)
		if err != nil {
			return nil, err
		}
		budget -= n
		if budget < 0 {
			return nil, ErrHeaderTooLarge
		}
		if line == "" {
			return hs, nil
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("%w: %q", ErrMalformedHeader, line)
		}
		name := line[:colon]
		if strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%w: whitespace in field name %q", ErrMalformedHeader, name)
		}
		hs = append(hs, Header{Name: name, Value: strings.TrimSpace(line[colon+1:])})
	}
}
