package cdn

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/multipart"
	"repro/internal/netsim"
	"repro/internal/origin"
	"repro/internal/resource"
	"repro/internal/vendor"
)

// borrowSetup is one front edge of the ownership test and the request
// it is sent.
type borrowSetup struct {
	name, addr, rangeHeader string
}

// startEdge builds an edge for profile in front of upstream and serves
// it at addr, sharing the test's recycler.
func startEdge(t *testing.T, net *netsim.Network, bodies *bodyRecycler, profile *vendor.Profile, addr, upstream string, disableCache bool) {
	t.Helper()
	e, err := NewEdge(Config{
		Profile: profile, Network: net,
		UpstreamAddr: upstream, UpstreamSeg: netsim.NewSegment(addr + "-up"),
		DisableCache: disableCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.bodies = bodies
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go e.Serve(l)
	t.Cleanup(func() { l.Close() })
}

// waitReturned waits until every buffer bodies lent has come back; an
// edge releases a reply's buffers just after its client read the reply.
func waitReturned(t *testing.T, bodies *bodyRecycler) (lent, returned int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lent, returned = bodies.lent.Load(), bodies.returned.Load()
		if returned >= lent || time.Now().After(deadline) {
			return lent, returned
		}
		time.Sleep(time.Millisecond)
	}
}

// partCount counts the parts of a multipart reply (1 for any other
// reply with a body).
func partCount(resp *httpwire.Response) int {
	ct, _ := resp.Headers.Get("Content-Type")
	boundary, ok := multipart.ParseContentTypeValue(ct)
	if !ok {
		return 1
	}
	return bytes.Count(resp.Body, []byte("--"+boundary+"\r\n"))
}

func TestBorrowedBodiesOwnership(t *testing.T) {
	// Three setups whose upstream bodies are all borrowed, interleaved
	// on one recycler: two OBR cascades whose FCDN (cache off, as the
	// attacker configures it) relays the BCDN's n-part reply, StackPath
	// fetching twice per request, and a cache-off Cloudflare SBR edge.
	// A buffer released twice, or released while its reply is still
	// being written, hands one buffer to two requests at once: the
	// replies then differ, and -race reports the shared writes.
	store := resource.NewStore()
	store.AddSynthetic("/1KB.bin", 1024, "application/octet-stream")
	store.AddSynthetic("/64KB.bin", 64<<10, "application/octet-stream")
	net := netsim.NewNetwork()
	originL, err := net.Listen("origin:80")
	if err != nil {
		t.Fatal(err)
	}
	go origin.NewServer(store, origin.Config{}).Serve(originL)
	t.Cleanup(func() { originL.Close() })

	bodies := &bodyRecycler{}
	startEdge(t, net, bodies, vendor.Akamai(), "akamai:80", "origin:80", false)
	startEdge(t, net, bodies, vendor.CDN77(), "cdn77:80", "akamai:80", true)
	startEdge(t, net, bodies, vendor.StackPath(), "stackpath:80", "akamai:80", true)
	startEdge(t, net, bodies, vendor.Cloudflare(), "cloudflare:80", "origin:80", true)

	const n = 64
	obrRange := "bytes=1-" + strings.Repeat(",0-", n-1)
	setups := []borrowSetup{
		{"cdn77->akamai", "cdn77:80", obrRange},
		{"stackpath->akamai", "stackpath:80", obrRange},
		{"cloudflare cache-off", "cloudflare:80", "bytes=0-0"},
	}
	wantParts := []int{n, n, 1}

	const workers, perWorker = 4, 60 // 240 requests
	first := make([]*httpwire.Response, len(setups))
	var once [3]sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w + i) % len(setups)
				s := setups[k]
				target := "/1KB.bin"
				if k == 2 {
					target = fmt.Sprintf("/64KB.bin?cb=w%d-%d", w, i)
				}
				req := httpwire.NewRequest("GET", target, "site.example")
				req.Headers.Add("Range", s.rangeHeader)
				resp, err := origin.Fetch(net, s.addr, netsim.NewSegment("client"), req)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", s.name, err)
					continue
				}
				once[k].Do(func() { first[k] = resp })
				ref := first[k]
				if resp.StatusCode != ref.StatusCode || !bytes.Equal(resp.Body, ref.Body) || partCount(resp) != partCount(ref) {
					errs <- fmt.Errorf("%s: reply %d/%dB/%d parts, first reply %d/%dB/%d parts", s.name,
						resp.StatusCode, len(resp.Body), partCount(resp), ref.StatusCode, len(ref.Body), partCount(ref))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for k, s := range setups {
		if ref := first[k]; ref != nil && (ref.StatusCode != httpwire.StatusPartialContent || partCount(ref) != wantParts[k]) {
			t.Errorf("%s: first reply %d with %d parts, want 206 with %d", s.name, ref.StatusCode, partCount(ref), wantParts[k])
		}
	}
	lent, returned := waitReturned(t, bodies)
	// StackPath borrows two buffers per request, the others one each.
	if want := int64(workers * perWorker * 4 / 3); lent != want || returned != lent {
		t.Errorf("buffers lent %d, returned %d, want %d each", lent, returned, want)
	}
}

func TestBorrowedTruncatedUpstream(t *testing.T) {
	// The origin dies 4 KB into an 8 KB lazy relay: the edge answers 502
	// and gives back the buffer the partial body went into, once.
	r := newFaultyRig(t, vendor.CDN77(), 64<<10, 4<<10)
	bodies := &bodyRecycler{}
	r.edge.bodies = bodies // before the first request reaches the edge
	resp := r.get(t, "/target.bin", "bytes=2048-10000")
	if resp.StatusCode != httpwire.StatusBadGateway {
		t.Fatalf("truncated lazy relay: status=%d, want 502", resp.StatusCode)
	}
	if lent, returned := waitReturned(t, bodies); lent != 1 || returned != 1 {
		t.Errorf("buffers lent %d, returned %d, want 1 each", lent, returned)
	}
}
