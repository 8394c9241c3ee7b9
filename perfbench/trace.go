package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started. Parent is the id of the span that caused this one (0
// for a root); Op numbers the benchmark operation the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends. The benchmark's caller
// is a single closed loop, so the open root span is a process-wide value:
// every span recorded while it is open becomes its child. Spans recorded
// by background goroutines with no root open (pipeline workers running
// ahead of the trainer, the serving tier's refresher) are children of the
// most recent root, which is still the op they run for.
type tracer struct {
	t0     time.Time
	ids    atomic.Int64
	op     atomic.Int64
	parent atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens the root span of operation op; end closes it.
func (t *tracer) begin(op int64) (id, start int64) {
	id = t.ids.Add(1)
	t.op.Store(op)
	t.parent.Store(id)
	return id, t.now()
}

func (t *tracer) end(name string, id, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Op: t.op.Load()})
	t.mu.Unlock()
}

// record stores a finished child span of the open root.
func (t *tracer) record(name string, start, end int64, failed bool) {
	s := span{ID: t.ids.Add(1), Name: name, Start: start, End: end, Parent: t.parent.Load(), Op: t.op.Load(), Err: failed}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// rootStats splits the root spans called name into self time and the union
// of their children's time, summed over all such roots.
func rootStats(spans []span, name string) (n int, total, self, blocking int64) {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	for _, s := range spans {
		if s.Name != name || s.Parent != 0 {
			continue
		}
		n++
		iv := s.interval()
		st := selfTime(iv, children[s.ID])
		total += iv.end - iv.start
		self += st
		blocking += iv.end - iv.start - st
	}
	return n, total, self, blocking
}

// hotMethods are the cluster RPCs whose per-call cost the traced run
// reports.
var hotMethods = []string{"SampleNeighbors", "Neighbors", "Attrs", "SampleEdges", "Lease", "Release", "Update"}

// replayMethods are the hot RPCs whose captured requests are replayed
// directly into the shard handlers.
var replayMethods = []string{"SampleNeighbors", "Neighbors", "Attrs", "SampleEdges"}

const (
	captureEvery = 8   // keep one request in this many
	captureMax   = 256 // per method
)

type captured struct {
	part int
	req  any
}

// tracedTransport times every call of the transport it wraps and keeps a
// sample of the hot read requests for handler replay. It forwards the
// Kicker and RetryStats capabilities of the wrapped transport, so the
// client and retry layers behave as they do without it.
type tracedTransport struct {
	inner cluster.Transport
	tr    *tracer

	mu    sync.Mutex
	seen  map[string]int
	saved map[string][]captured
}

func newTracedTransport(inner cluster.Transport, tr *tracer) *tracedTransport {
	return &tracedTransport{inner: inner, tr: tr, seen: map[string]int{}, saved: map[string][]captured{}}
}

func (t *tracedTransport) capture(m string, part int, req any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen[m]++
	if t.seen[m]%captureEvery == 0 && len(t.saved[m]) < captureMax {
		t.saved[m] = append(t.saved[m], captured{part, req})
	}
}

func (t *tracedTransport) dropCaptures() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen = map[string]int{}
	t.saved = map[string][]captured{}
}

func traceCall[Req, Rep any](t *tracedTransport, m string, part int, req Req, reply *Rep, call func(int, Req, *Rep) error) error {
	start := t.tr.now()
	err := call(part, req, reply)
	t.tr.record("rpc."+m, start, t.tr.now(), err != nil)
	return err
}

func (t *tracedTransport) Neighbors(part int, req cluster.NeighborsRequest, reply *cluster.NeighborsReply) error {
	t.capture("Neighbors", part, req)
	return traceCall(t, "Neighbors", part, req, reply, t.inner.Neighbors)
}

func (t *tracedTransport) SampleNeighbors(part int, req cluster.SampleRequest, reply *cluster.SampleReply) error {
	t.capture("SampleNeighbors", part, req)
	return traceCall(t, "SampleNeighbors", part, req, reply, t.inner.SampleNeighbors)
}

func (t *tracedTransport) SampleEdges(part int, req cluster.EdgesRequest, reply *cluster.EdgesReply) error {
	t.capture("SampleEdges", part, req)
	return traceCall(t, "SampleEdges", part, req, reply, t.inner.SampleEdges)
}

func (t *tracedTransport) Attrs(part int, req cluster.AttrsRequest, reply *cluster.AttrsReply) error {
	t.capture("Attrs", part, req)
	return traceCall(t, "Attrs", part, req, reply, t.inner.Attrs)
}

func (t *tracedTransport) NegativePool(part int, req cluster.NegPoolRequest, reply *cluster.NegPoolReply) error {
	return traceCall(t, "NegativePool", part, req, reply, t.inner.NegativePool)
}

func (t *tracedTransport) Stats(part int, req cluster.StatsRequest, reply *cluster.StatsReply) error {
	return traceCall(t, "Stats", part, req, reply, t.inner.Stats)
}

func (t *tracedTransport) Bootstrap(part int, req cluster.BootstrapRequest, reply *cluster.BootstrapReply) error {
	return traceCall(t, "Bootstrap", part, req, reply, t.inner.Bootstrap)
}

func (t *tracedTransport) Update(part int, req cluster.UpdateRequest, reply *cluster.UpdateReply) error {
	return traceCall(t, "Update", part, req, reply, t.inner.Update)
}

func (t *tracedTransport) Lease(part int, req cluster.LeaseRequest, reply *cluster.LeaseReply) error {
	return traceCall(t, "Lease", part, req, reply, t.inner.Lease)
}

func (t *tracedTransport) Release(part int, req cluster.ReleaseRequest, reply *cluster.ReleaseReply) error {
	return traceCall(t, "Release", part, req, reply, t.inner.Release)
}

func (t *tracedTransport) Compact(part int, req cluster.CompactRequest, reply *cluster.CompactReply) error {
	return traceCall(t, "Compact", part, req, reply, t.inner.Compact)
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// Kick forwards cluster.Kicker.
func (t *tracedTransport) Kick(part int) {
	if k, ok := t.inner.(cluster.Kicker); ok {
		k.Kick(part)
	}
}

// Retries forwards cluster.RetryStats.
func (t *tracedTransport) Retries() int64 {
	if rs, ok := t.inner.(cluster.RetryStats); ok {
		return rs.Retries()
	}
	return 0
}

// FastFails forwards cluster.RetryStats.
func (t *tracedTransport) FastFails() int64 {
	if rs, ok := t.inner.(cluster.RetryStats); ok {
		return rs.FastFails()
	}
	return 0
}

// replay runs the captured read requests directly against the shard
// handlers and returns each method's handler times in nanoseconds. Pins
// are dropped: the leases they named may be released by now, and the
// read-only workloads never move the head, so the head is the same
// snapshot.
func (t *tracedTransport) replay(servers []*cluster.Server) map[string][]float64 {
	t.mu.Lock()
	saved := make(map[string][]captured, len(t.saved))
	for m, cs := range t.saved {
		saved[m] = append([]captured(nil), cs...)
	}
	t.mu.Unlock()
	out := make(map[string][]float64)
	for m, cs := range saved {
		for _, c := range cs {
			s := servers[c.part]
			start := time.Now()
			var err error
			switch r := c.req.(type) {
			case cluster.SampleRequest:
				r.Pin, r.Pinned = 0, false
				err = s.ServeSampleNeighbors(r, &cluster.SampleReply{})
			case cluster.NeighborsRequest:
				r.Pin, r.Pinned = 0, false
				err = s.ServeNeighbors(r, &cluster.NeighborsReply{})
			case cluster.AttrsRequest:
				r.Pin, r.Pinned = 0, false
				err = s.ServeAttrs(r, &cluster.AttrsReply{})
			case cluster.EdgesRequest:
				r.Pin, r.Pinned = 0, false
				err = s.ServeSampleEdges(r, &cluster.EdgesReply{})
			}
			if err == nil {
				out[m] = append(out[m], float64(time.Since(start)))
			}
		}
	}
	return out
}

// tracedEmbedder times the serving tier's encoder flushes.
type tracedEmbedder struct {
	inner serve.Embedder
	tr    *tracer

	calls, vertices, ns atomic.Int64
}

func (e *tracedEmbedder) EmbedCtx(vs []graph.ID) (*tensor.Matrix, *sampling.Context, error) {
	start := e.tr.now()
	m, ctx, err := e.inner.EmbedCtx(vs)
	end := e.tr.now()
	e.tr.record("serve.encoder", start, end, err != nil)
	e.calls.Add(1)
	e.vertices.Add(int64(len(vs)))
	e.ns.Add(end - start)
	return m, ctx, err
}

// relay is a loopback TCP proxy in front of one shard that counts the
// bytes the sockets carry in each direction, independent of the codec.
type relay struct {
	lis    net.Listener
	target string
	tx, rx atomic.Int64 // client to shard, shard to client

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{lis: lis, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) Addr() string { return r.lis.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.lis.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		r.conns = append(r.conns, down, up)
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pipe(up, down, &r.tx)
		go r.pipe(down, up, &r.rx)
	}
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// pipe copies src to dst until either side closes, then closes both so the
// opposite pipe ends too.
func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	_, _ = io.Copy(countingWriter{dst, n}, src) // ends on close; either side closing is normal
	dst.Close()
	src.Close()
}

// Close stops accepting, severs every relayed connection and waits for the
// relay's goroutines.
func (r *relay) Close() {
	r.mu.Lock()
	r.closed = true
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	r.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}
