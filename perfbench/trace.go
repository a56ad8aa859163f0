package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function or a wrapped interface method. Spans of one request
// share Req (its wire ID); Parent names the enclosing span's ID.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// key ties a synthesis span to the requests that asked for it.
	key routeserver.Key
}

// tracer keeps spans in memory for a sampled subset of requests; they are
// linked into per-request trees and written out when the run ends.
type tracer struct {
	// record gates span capture to one phase; sample keeps requests whose
	// wire ID is a multiple of it.
	record atomic.Bool
	sample uint64
	mu     sync.Mutex
	spans  []span
	// capture holds the first raw request and reply bytes the daemon's
	// socket carried, for timing the wire codec on real frames.
	capIn, capOut []byte
	capOwner      atomic.Pointer[tracedConn]
}

const captureBytes = 256 << 10

func newTracer() *tracer { return &tracer{sample: traceSample} }

// traceSample keeps one request in this many: enough spans for stable
// self times, few enough to ship to the load side and write out.
const traceSample = 32

// now is the wall clock in nanoseconds, the clock the load side's samples
// are converted to, so both sides' spans line up.
func (t *tracer) now() int64 { return time.Now().UnixNano() }

// sample is one traced request as the load side saw it: when it was due
// and when its reply arrived (wall-clock ns), and the key it asked for.
type sample struct {
	ID        uint64
	Due, Done int64
	Key       routeserver.Key
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) sampled(id uint64) bool { return t.record.Load() && id%t.sample == 0 }

// tracedStrategy wraps the synthesis strategy: the only way into the
// synthesis layer is through this interface, so timing its methods times
// the layer exactly.
type tracedStrategy struct {
	inner synthesis.Strategy
	tr    *tracer
	srv   *routeserver.Server // set after the server wraps the strategy

	routeCalls, found, fpCalls atomic.Int64
	routeNs, fpNs              atomic.Int64
	invCalls, invNs            atomic.Int64

	mu     sync.Mutex
	routes []float64 // µs per Route call
	// perKey counts Route calls per (key, mutation epoch): more than one
	// is synthesis the singleflight should have shared.
	perKey map[keyEpoch]int
}

type keyEpoch struct {
	k     routeserver.Key
	epoch uint64
}

func newTracedStrategy(inner synthesis.Strategy, tr *tracer) *tracedStrategy {
	return &tracedStrategy{inner: inner, tr: tr, perKey: make(map[keyEpoch]int)}
}

// Route implements synthesis.Strategy.
func (s *tracedStrategy) Route(req policy.Request) (ad.Path, bool) {
	t0 := s.tr.now()
	path, ok := s.inner.Route(req)
	t1 := s.tr.now()
	s.routeCalls.Add(1)
	s.routeNs.Add(t1 - t0)
	if ok {
		s.found.Add(1)
	}
	k := routeserver.KeyOf(req)
	s.mu.Lock()
	// The server calls Route under the read side of its strategy lock,
	// during which the epoch cannot move.
	s.perKey[keyEpoch{k, s.srv.Epoch()}]++
	s.routes = append(s.routes, float64(t1-t0)/1e3)
	s.mu.Unlock()
	if s.tr.record.Load() {
		s.tr.add(span{Name: "synth.route", Start: t0, End: t1, key: k})
	}
	return path, ok
}

// Footprint implements synthesis.Strategy.
func (s *tracedStrategy) Footprint(req policy.Request, path ad.Path) synthesis.Footprint {
	t0 := s.tr.now()
	fp := s.inner.Footprint(req, path)
	t1 := s.tr.now()
	s.fpCalls.Add(1)
	s.fpNs.Add(t1 - t0)
	if s.tr.record.Load() {
		s.tr.add(span{Name: "synth.footprint", Start: t0, End: t1, key: routeserver.KeyOf(req)})
	}
	return fp
}

// InvalidateScoped implements synthesis.Strategy.
func (s *tracedStrategy) InvalidateScoped(c synthesis.Change) {
	t0 := time.Now()
	s.inner.InvalidateScoped(c)
	s.invCalls.Add(1)
	s.invNs.Add(int64(time.Since(t0)))
}

// Invalidate implements synthesis.Strategy.
func (s *tracedStrategy) Invalidate() { s.inner.Invalidate() }

// Stats implements synthesis.Strategy.
func (s *tracedStrategy) Stats() synthesis.StrategyStats { return s.inner.Stats() }

// Name implements synthesis.Strategy.
func (s *tracedStrategy) Name() string { return s.inner.Name() }

// synthPerKey is Route calls per distinct (key, epoch).
func (s *tracedStrategy) synthPerKey() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := 0
	for _, n := range s.perKey {
		calls += n
	}
	return ratio(float64(calls), float64(len(s.perKey)))
}

// sockStats counts the daemon side of every accepted connection.
type sockStats struct {
	reads, writes    atomic.Int64
	readNs, writeNs  atomic.Int64
	inFrames, outFrm atomic.Int64
}

// tracedListener hands daemon.Serve connections whose Read and Write are
// timed: the socket layer as the daemon sees it.
type tracedListener struct {
	net.Listener
	tr *tracer
	st *sockStats
}

// Accept implements net.Listener.
func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, st: l.st}, nil
}

// tracedConn is one daemon-side connection. The session's reader calls
// Read and its writer calls Write, each from a single goroutine, so each
// direction's frame scanner has one user.
type tracedConn struct {
	net.Conn
	tr     *tracer
	st     *sockStats
	rd, wr frameScan
}

// Read implements net.Conn: one request span ends at the Read that
// delivered its last byte.
func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Read(p)
	t1 := c.tr.now()
	c.st.reads.Add(1)
	c.st.readNs.Add(t1 - t0)
	c.rd.feed(p[:n], func(id uint64) {
		c.st.inFrames.Add(1)
		if c.tr.sampled(id) {
			c.tr.add(span{Req: id, Name: "socket.read", Start: t0, End: t1})
		}
	})
	c.tr.keep(c, &c.tr.capIn, p[:n])
	return n, err
}

// Write implements net.Conn.
func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Write(p)
	t1 := c.tr.now()
	c.st.writes.Add(1)
	c.st.writeNs.Add(t1 - t0)
	c.wr.feed(p[:n], func(id uint64) {
		c.st.outFrm.Add(1)
		if c.tr.sampled(id) {
			c.tr.add(span{Req: id, Name: "socket.write", Start: t0, End: t1})
		}
	})
	c.tr.keep(c, &c.tr.capOut, p[:n])
	return n, err
}

// keep appends socket bytes to a capture buffer while it has room. Only
// the first recorded connection's streams are kept, so frames stay aligned.
func (t *tracer) keep(c *tracedConn, buf *[]byte, p []byte) {
	if !t.record.Load() || !(t.capOwner.CompareAndSwap(nil, c) || t.capOwner.Load() == c) {
		return
	}
	t.mu.Lock()
	if len(*buf)+len(p) <= captureBytes {
		*buf = append(*buf, p...)
	}
	t.mu.Unlock()
}

// frameScan follows wire framing across arbitrary read/write boundaries:
// a 4-byte header whose last two bytes are the body length, then the
// body, whose first 8 bytes are the serving messages' request ID.
type frameScan struct {
	hdr  [4]byte
	nh   int
	body int
	id   [8]byte
	nid  int
}

func (f *frameScan) feed(p []byte, done func(id uint64)) {
	for len(p) > 0 {
		if f.nh < 4 {
			k := copy(f.hdr[f.nh:], p)
			f.nh += k
			p = p[k:]
			if f.nh == 4 {
				f.body = int(binary.BigEndian.Uint16(f.hdr[2:4]))
				f.nid = 0
			}
		} else {
			k := f.body
			if k > len(p) {
				k = len(p)
			}
			if f.nid < 8 {
				f.nid += copy(f.id[f.nid:], p[:k])
			}
			f.body -= k
			p = p[k:]
		}
		if f.nh == 4 && f.body == 0 {
			id := uint64(0)
			if f.nid >= 8 {
				id = binary.BigEndian.Uint64(f.id[:])
			}
			done(id)
			f.nh = 0
		}
	}
}

// selfTimes links the recorded spans into per-request trees and returns
// each layer's mean self time per traced request in µs: a span's duration
// minus the part its children cover. The tree per request is
//
//	loadgen (due → reply read by the client)
//	├─ socket.read (daemon Read that completed the request)
//	├─ daemon (request read → reply written: decode, dispatch, cache, queue)
//	│  ├─ synth.route      (matched by key and time)
//	│  └─ synth.footprint
//	└─ socket.write (daemon Write that carried the reply)
func (t *tracer) selfTimes(samples []sample, path string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	reads := map[uint64]span{}
	writes := map[uint64]span{}
	var synth []span
	for _, s := range t.spans {
		switch s.Name {
		case "socket.read":
			reads[s.Req] = s
		case "socket.write":
			if _, ok := writes[s.Req]; !ok {
				writes[s.Req] = s
			}
		default:
			synth = append(synth, s)
		}
	}
	sort.Slice(synth, func(i, j int) bool { return synth[i].Start < synth[j].Start })
	bySelf := map[string]float64{}
	n := 0
	var out []span
	for _, sm := range samples {
		id := sm.ID
		rd, okR := reads[id]
		wr, okW := writes[id]
		if !okR || !okW {
			continue
		}
		n++
		root := span{Req: id, ID: len(out) + 1, Name: "loadgen", Start: sm.Due, End: sm.Done}
		rootID := root.ID
		out = append(out, root)
		rd.ID, rd.Parent = len(out)+1, rootID
		out = append(out, rd)
		dm := span{Req: id, ID: len(out) + 1, Parent: rootID, Name: "daemon", Start: rd.End, End: wr.Start}
		out = append(out, dm)
		wr.ID, wr.Parent = len(out)+1, rootID
		out = append(out, wr)
		k := sm.Key
		var kids []span
		lo := sort.Search(len(synth), func(j int) bool { return synth[j].Start >= dm.Start })
		for j := lo; j < len(synth) && synth[j].Start < dm.End; j++ {
			if synth[j].key == k && synth[j].End <= dm.End {
				c := synth[j]
				c.Req, c.ID, c.Parent = id, len(out)+1, dm.ID
				out = append(out, c)
				kids = append(kids, c)
			}
		}
		// A blocking Read can start before the request was due; only the
		// part inside the request's lifetime is its socket time.
		bySelf["socket"] += float64(overlap(rd, root)+overlap(wr, root)) / 1e3
		bySelf["loadgen"] += float64(selfTime(root, []span{rd, dm, wr})) / 1e3
		bySelf["daemon"] += float64(selfTime(dm, kids)) / 1e3
		for _, c := range kids {
			bySelf["synth"] += float64(c.End-c.Start) / 1e3
		}
	}
	for k := range bySelf {
		bySelf[k] /= float64(max(n, 1))
	}
	bySelf["requests"] = float64(n)
	writeSpans(path, out)
	return bySelf
}

// overlap is the length of the part of s inside p.
func overlap(s, p span) int64 { return max(0, min(s.End, p.End)-max(s.Start, p.Start)) }

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range kids {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		covered += v.b - v.a
		end = v.b
	}
	return s.End - s.Start - covered
}

// writeSpans writes the linked spans as JSON lines. Losing the file loses
// only the detail behind the reported self times, so errors are reported
// on stderr and the run goes on.
func writeSpans(path string, spans []span) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		warn("trace dir: %v", err)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		warn("trace file: %v", err)
		return
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	if err := bw.Flush(); err != nil {
		warn("trace file: %v", err)
	}
	if err := f.Close(); err != nil {
		warn("trace file: %v", err)
	}
}
