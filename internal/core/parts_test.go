package core

import (
	"strings"
	"testing"

	"repro/internal/httpwire"
	"repro/internal/origin"
	"repro/internal/resource"
	"repro/internal/vendor"
)

// cascadeReplies returns one materialized client reply from each of the
// 11 Table V cascades, at n small enough to split at every position.
func cascadeReplies(tb testing.TB) []*httpwire.Response {
	tb.Helper()
	const n = 8
	var out []*httpwire.Response
	for _, f := range []string{"cdn77", "cdnsun", "cloudflare", "stackpath"} {
		for _, b := range []string{"akamai", "azure", "stackpath"} {
			if f == b {
				continue
			}
			fcdn, _ := vendor.ByName(f)
			bcdn, _ := vendor.ByName(b)
			store := resource.NewStore()
			store.AddSynthetic(TargetPath, 1<<10, OctetStream)
			topo, err := NewOBRTopology(fcdn, bcdn, store)
			if err != nil {
				tb.Fatal(err)
			}
			req := NewAttackRequest(TargetPath)
			req.Headers.Add("Range", BuildOverlappingRange(OBRFirstToken(f), n))
			resp, err := origin.Fetch(topo.Net, topo.FCDNAddr, topo.ClientSeg, req)
			topo.Close()
			if err != nil {
				tb.Fatalf("%s->%s: %v", f, b, err)
			}
			if got := CountParts(resp); got != n {
				tb.Fatalf("%s->%s: %d parts, want %d", f, b, got, n)
			}
			out = append(out, resp)
		}
	}
	return out
}

// streamedParts counts resp's parts the way the count-only attacker
// does: the body arrives through the sink in the given writes.
func streamedParts(resp *httpwire.Response, writes ...[]byte) int {
	var c partCounter
	w := c.sink(resp, -1)
	for _, p := range writes {
		w.Write(p) //nolint:errcheck // neither sink fails
	}
	return c.parts(resp)
}

// checkEverySplit holds the streaming count equal to CountParts on the
// materialized body when the body arrives in two writes split at every
// position, and when it arrives a byte at a time.
func checkEverySplit(t *testing.T, resp *httpwire.Response) {
	t.Helper()
	want := CountParts(resp)
	body := resp.Body
	for i := 0; i <= len(body); i++ {
		if got := streamedParts(resp, body[:i], body[i:]); got != want {
			t.Fatalf("split at %d of %d: %d parts, CountParts says %d", i, len(body), got, want)
		}
	}
	bytewise := make([][]byte, len(body))
	for i := range body {
		bytewise[i] = body[i : i+1]
	}
	if got := streamedParts(resp, bytewise...); got != want {
		t.Fatalf("byte-at-a-time: %d parts, CountParts says %d", got, want)
	}
}

// multipartReply is a 206 head with boundary b carrying body.
func multipartReply(b, body string) *httpwire.Response {
	resp := httpwire.NewResponse(httpwire.StatusPartialContent)
	resp.Headers.Add("Content-Type", "multipart/byteranges; boundary="+b)
	resp.SetBody([]byte(body))
	return resp
}

func TestPartCounterMatchesCountParts(t *testing.T) {
	plain := httpwire.NewResponse(httpwire.StatusOK)
	plain.Headers.Add("Content-Type", "text/plain")
	plain.SetBody([]byte("--b\r\n--b\r\n"))
	for name, resp := range map[string]*httpwire.Response{
		"two parts":               multipartReply("b", "\r\n--b\r\nContent-Range: bytes 0-0/1\r\n\r\nx\r\n--b\r\n\r\ny\r\n--b--\r\n"),
		"closing delimiter only":  multipartReply("b", "\r\n--b--\r\n"),
		"delimiters back to back": multipartReply("THIS_STRING_SEPARATES", strings.Repeat("--THIS_STRING_SEPARATES\r\n", 5)),
		"empty body":              multipartReply("b", ""),
		"not multipart":           plain,
	} {
		t.Run(name, func(t *testing.T) { checkEverySplit(t, resp) })
	}
	for _, resp := range cascadeReplies(t) {
		checkEverySplit(t, resp)
	}
}

// FuzzPartCounter drives the same every-split check over arbitrary
// bodies and boundaries, seeded with one reply from each cascade.
func FuzzPartCounter(f *testing.F) {
	for _, resp := range cascadeReplies(f) {
		ct, _ := resp.Headers.Get("Content-Type")
		b, _ := cutBoundary(ct)
		f.Add(b, resp.Body)
	}
	f.Fuzz(func(t *testing.T, boundary string, body []byte) {
		if strings.Contains(boundary, "\n") || len(body) > 1<<14 {
			t.Skip("a header value never holds a newline; long bodies add nothing")
		}
		checkEverySplit(t, multipartReply(boundary, string(body)))
	})
}
