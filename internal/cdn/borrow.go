package cdn

import (
	"io"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/httpwire"
)

// Borrowed upstream bodies. An upstream body the edge will not keep (a
// lazy relay, or any fetch on an edge whose cache is off) lives only
// until the client reply that carries it is written. Such a body is
// read into a recycled buffer rather than a fresh allocation: for an
// OBR relay that is a 6–12 MB n-part reply per request, allocated and
// zeroed only to be copied out once.
//
// Ownership is one list per request. The upstreamFetcher records each
// buffer it reads into, the reply built for the request carries the
// list, and ServeConn releases it once that reply is written and
// flushed. Nothing else releases a buffer: Response copies (relay's
// CloneShared) share the bytes but never the ownership, and a reply
// nobody writes (h2, a probe calling Handle) leaves its buffers to the
// GC. A body that goes into the cache is never borrowed.

// borrowList is the set of recycled buffers one request's upstream
// bodies were read into.
type borrowList []*httpwire.BodyBuffer

// release hands every buffer back to r. It runs once per request, after
// the reply that references the buffers has been written.
func (l borrowList) release(r *bodyRecycler) {
	for _, bb := range l {
		r.put(bb)
	}
}

// bodyRecycler parks one released body buffer for the next borrowed
// read. The slot is weak: a parked buffer is reused until the next GC
// cycle and then collected, so it never counts toward the live heap the
// way a strong free list of multi-megabyte buffers would. Reading a weak
// pointer during a GC mark phase makes its target live for that cycle,
// so the slot is read only by a get that will use what it finds.
type bodyRecycler struct {
	mu   sync.Mutex
	slot weak.Pointer[httpwire.BodyBuffer]
	size int64 // capacity of the parked buffer; 0 when none was parked

	// lent and returned count buffers handed out and handed back.
	lent, returned atomic.Int64
}

// sharedBodies is the recycler of every edge in the process.
var sharedBodies bodyRecycler

// get returns an empty buffer with room for n bytes: the parked one if
// it is at least that large and not yet collected, a fresh one
// otherwise.
func (r *bodyRecycler) get(n int64) *httpwire.BodyBuffer {
	r.lent.Add(1)
	var bb *httpwire.BodyBuffer
	r.mu.Lock()
	if n <= r.size {
		bb = r.slot.Value()
		r.slot, r.size = weak.Pointer[httpwire.BodyBuffer]{}, 0
	}
	r.mu.Unlock()
	if bb == nil {
		return httpwire.NewBodyBuffer(n)
	}
	bb.Reset()
	return bb
}

// put parks bb unless the slot holds a larger buffer, or did until the
// GC took it (a later get finds out and empties the slot).
func (r *bodyRecycler) put(bb *httpwire.BodyBuffer) {
	r.returned.Add(1)
	r.mu.Lock()
	if bb.Cap() >= r.size {
		r.slot, r.size = weak.Make(bb), bb.Cap()
	}
	r.mu.Unlock()
}

// borrowBody is the httpwire.BodySink of a fetch whose body the edge
// will not keep: a body of known size goes into a recycled buffer, which
// joins the request's borrow list before the first byte is read.
func (u *upstreamFetcher) borrowBody(_ *httpwire.Response, size int64) io.Writer {
	if size <= 0 {
		return nil
	}
	bb := u.edge.bodies.get(size)
	u.borrowed = append(u.borrowed, bb)
	return bb
}
