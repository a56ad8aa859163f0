package main

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ad"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/wire"
)

// rec is one operation's outcome. The sender writes sent/lo, the receiver
// done/hi and the reply fields; each field has one writer, and the
// checker reads them only after both have finished.
type rec struct {
	due        int64 // due time (ns); a commit's is its plan's reply time
	sent, done int64 // 0 = never sent / no reply
	lo, hi     uint32
	ok         bool // reply had no error code
	found      bool
	path       ad.Path
	n          uint64 // predicted evictions (plan) or flushed entries (fail/commit)
	code       uint8
	failed     bool // set by the checker
	verified   bool // matched a memoized verdict on arrival
}

// phase is one open-loop run of a schedule against the stack.
type phase struct {
	name  string
	rate  float64 // offered query rate (req/s)
	dur   int64   // scheduled length (ns)
	ops   []op
	recs  []rec
	base  uint64 // wire IDs are base + index + 1
	start time.Time
	memo  *checker // answers already verified, consulted on arrival
	// frames holds every request encoded before the phase starts (op i
	// is frames[off[i]:off[i+1]], empty for ops encoded when sent), so the
	// generator spends its time sending, not encoding.
	frames []byte
	off    []int32
}

// phaseSeq gives each phase a disjoint wire-ID range so a straggling reply
// from an earlier phase can never be matched to this one.
var phaseSeq atomic.Uint64

func newPhase(name string, rate float64, dur int64, ops []op) *phase {
	p := &phase{name: name, rate: rate, dur: dur, ops: ops, recs: make([]rec, len(ops))}
	p.base = phaseSeq.Add(1) << 32
	p.off = make([]int32, len(ops)+1)
	for i := range ops {
		p.recs[i].due = ops[i].at
		if k := ops[i].kind; k != opSend && k != opCommit {
			p.frames = append(p.frames, wire.Marshal(request(p, i, nil))...)
		}
		p.off[i+1] = int32(len(p.frames))
	}
	return p
}

// conns is the number of load connections and sending goroutines: one per
// CPU, as a client host with that many cores would open.
var conns = runtime.NumCPU()

// ctlEvent passes a control reply from the receiver to the sender that
// owns the control stream: either "next op may go" or "send this commit".
type ctlEvent struct{ commit, planID int64 }

// driveConns runs the phase over freshly dialed connections: per
// connection one sender goroutine that writes every op when due (all due
// ops in one write) and one receiver goroutine that matches replies to
// requests by wire ID. Queries are striped across connections; control
// ops ride connection 0, data ops the last one.
func driveConns(p *phase, t *target, dial func() (net.Conn, error), grace time.Duration) error {
	cs := make([]net.Conn, conns)
	for i := range cs {
		c, err := dial()
		if err != nil {
			for _, c := range cs[:i] {
				c.Close()
			}
			return err
		}
		cs[i] = c
	}
	mine := make([][]int, conns)
	var ctl []int
	expect := make([]int, conns)
	qi := 0
	for i, o := range p.ops {
		switch {
		case o.kind == opQuery:
			c := qi % conns
			qi++
			mine[c] = append(mine[c], i)
			expect[c]++
		case o.kind.control():
			if o.kind != opCommit {
				ctl = append(ctl, i)
			}
			expect[0]++
		default:
			mine[conns-1] = append(mine[conns-1], i)
			expect[conns-1]++
		}
	}
	// One control op is in flight at a time, so one slot never blocks the
	// receiver.
	ctlCh := make(chan ctlEvent, 1)
	stop := make(chan struct{})
	start := time.Now()
	p.start = start
	clock := func() int64 { return int64(time.Since(start)) }
	var wg sync.WaitGroup
	recvDone := make(chan struct{}, conns)
	for c := range cs {
		var myCtl []int
		var events chan ctlEvent
		if c == 0 {
			myCtl, events = ctl, ctlCh
		}
		wg.Add(2)
		go func(c int, myCtl []int, events chan ctlEvent) {
			defer wg.Done()
			sendLoop(p, t, cs[c], mine[c], myCtl, events, stop, clock)
		}(c, myCtl, events)
		go func(c int, events chan ctlEvent) {
			defer wg.Done()
			recvLoop(p, t, cs[c], expect[c], events, clock)
			recvDone <- struct{}{}
		}(c, events)
	}
	// Receivers end when every expected reply arrived; past the grace
	// after the schedule, the rest count as timed out.
	timeout := time.NewTimer(time.Duration(p.dur) + grace)
	defer timeout.Stop()
	for n := 0; n < conns; n++ {
		select {
		case <-recvDone:
		case <-timeout.C:
			for _, c := range cs {
				c.SetDeadline(time.Now())
			}
			n = conns
		}
	}
	close(stop)
	for _, c := range cs {
		c.SetDeadline(time.Now())
	}
	wg.Wait()
	for _, c := range cs {
		c.Close()
	}
	return nil
}

// sendLoop writes this connection's ops when due. A control op goes only
// after the previous control reply; a commit as soon as its plan's reply
// arrives.
func sendLoop(p *phase, t *target, c net.Conn, mine, ctl []int, events chan ctlEvent, stop chan struct{}, clock func() int64) {
	bw := bufio.NewWriterSize(c, 64<<10)
	pc, err := newPacer()
	if err != nil {
		warn("%v", err)
		return
	}
	defer pc.close()
	busy := false
	qi, ci := 0, 0
	write := func(i int, now int64) bool {
		r := &p.recs[i]
		r.sent = now
		r.lo = t.mirror.acked.Load()
		if steps := stepsOf(&p.ops[i]); steps != nil {
			r.lo = t.mirror.record(steps)
			t.mirror.sent.Store(r.lo)
		}
		frame := p.frames[p.off[i]:p.off[i+1]]
		if len(frame) == 0 {
			frame = wire.Marshal(request(p, i, t))
		}
		_, err := bw.Write(frame)
		return err == nil
	}
	// handle applies a control reply: free the control stream, or send
	// the commit the plan reply asked for.
	handle := func(ev ctlEvent) bool {
		if ev.commit < 0 {
			busy = false
			return true
		}
		now := clock()
		p.recs[ev.commit].due = now
		p.ops[ev.commit].arg = uint32(ev.planID)
		return write(int(ev.commit), now) && bw.Flush() == nil
	}
	for qi < len(mine) || ci < len(ctl) || busy {
		select {
		case ev := <-events:
			if !handle(ev) {
				return
			}
		case <-stop:
			return
		default:
		}
		now := clock()
		for qi < len(mine) && p.ops[mine[qi]].at <= now {
			if !write(mine[qi], now) {
				return
			}
			qi++
		}
		if !busy && ci < len(ctl) && p.ops[ctl[ci]].at <= now {
			if !write(ctl[ci], now) {
				return
			}
			ci++
			busy = true
		}
		if bw.Buffered() > 0 {
			if bw.Flush() != nil {
				return
			}
		}
		next := int64(-1)
		if qi < len(mine) {
			next = p.ops[mine[qi]].at
		}
		if !busy && ci < len(ctl) && (next < 0 || p.ops[ctl[ci]].at < next) {
			next = p.ops[ctl[ci]].at
		}
		wait := maxNap
		if next >= 0 {
			wait = time.Duration(next - clock())
		}
		if busy {
			wait = min(wait, maxNap)
		}
		if wait > 0 && pc.sleep(wait) != nil {
			return
		}
	}
}

// maxNap bounds one sleep of a sender awaiting a control reply, so the
// commit it may have to send goes out within it.
const maxNap = 100 * time.Microsecond

// request builds op i's wire message.
func request(p *phase, i int, t *target) wire.Message {
	o := &p.ops[i]
	id := p.base + uint64(i) + 1
	switch o.kind {
	case opQuery:
		return &wire.Query{ID: id, Req: o.req}
	case opFail:
		return &wire.Control{ID: id, Op: wire.CtlFail, A: o.a, B: o.b}
	case opRestore:
		return &wire.Control{ID: id, Op: wire.CtlRestore, A: o.a, B: o.b}
	case opPolicy:
		return &wire.Control{ID: id, Op: wire.CtlPolicy, A: o.a, Cost: o.cost}
	case opPlan:
		return &wire.Plan{ID: id, Steps: o.steps}
	case opCommit:
		return &wire.Plan{ID: id, Commit: true, PlanID: uint64(o.arg)}
	case opInstall:
		return &wire.DataOp{ID: id, Op: wire.OpInstall, Req: o.req}
	case opSend:
		return &wire.DataOp{ID: id, Op: wire.OpSend, Handle: t.handles.pick(o.arg)}
	case opTick:
		return &wire.DataOp{ID: id, Op: wire.OpTick, Arg: o.arg}
	default:
		return &wire.DataOp{ID: id, Op: wire.OpRefresh}
	}
}

// recvLoop reads replies until every expected one arrived or the
// connection is closed under it.
func recvLoop(p *phase, t *target, c net.Conn, expect int, events chan ctlEvent, clock func() int64) {
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [4]byte
	var body []byte
	for n := 0; n < expect; n++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := int(binary.BigEndian.Uint16(hdr[2:]))
		if cap(body) < size {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		now := clock()
		i, ok := p.index(body)
		if !ok {
			continue // not a reply to this phase: the op it answers fails
		}
		r := &p.recs[i]
		r.done = now
		r.hi = t.mirror.sent.Load()
		// Fast path: a query reply whose bytes repeat an answer the checker
		// already verified, served while the world was at version 0, is
		// neither decoded nor kept.
		if hdr[0] == wire.Version && wire.MsgType(hdr[1]) == wire.TypeQueryReply &&
			p.memo != nil && r.hi == 0 && p.memo.known(routeserver.KeyOf(p.ops[i].req), body[8:]) {
			r.ok, r.found, r.verified = true, body[8] == 1, true
			continue
		}
		m, err := wire.Unmarshal(append(hdr[:], body...))
		if err != nil {
			continue // a malformed reply: the op it answers fails
		}
		switch m := m.(type) {
		case *wire.QueryReply:
			r.ok, r.found, r.path = true, m.Found, m.Path
		case *wire.ControlReply:
			r.ok, r.n = m.OK(), m.Flushed
			t.mirror.acked.Add(1) // control mutations are serialized
			events <- ctlEvent{commit: -1}
		case *wire.PlanReply:
			r.ok = m.OK()
			o := &p.ops[i]
			switch {
			case o.kind == opPlan && r.ok:
				r.n = m.Evicted
				events <- ctlEvent{commit: int64(o.commit), planID: int64(m.PlanID)}
			case o.kind == opPlan:
				expect-- // the commit will never be sent
				events <- ctlEvent{commit: -1}
			default:
				r.n = m.Flushed
				r.ok = r.ok && m.Committed
				t.mirror.acked.Add(1)
				events <- ctlEvent{commit: -1}
			}
		case *wire.DataOpReply:
			r.code = m.Code
			switch m.Op {
			case wire.OpInstall:
				r.ok = m.Code == wire.DataOK || m.Code == wire.DataNoRoute
				r.found, r.path = m.Code == wire.DataOK, m.Path
				if r.found {
					t.handles.add(m.Handle)
				}
			case wire.OpSend:
				r.ok = m.Code == wire.DataOK || m.Code == wire.DataNoState || m.Code == wire.DataUnknownHandle
			default:
				r.ok = m.Code == wire.DataOK
			}
		default:
			// NotPrimary on a primary-only run, or an error reply.
			r.ok = false
			if p.ops[i].kind.control() {
				events <- ctlEvent{commit: -1}
			}
		}
	}
}

// index maps a reply body to the op it answers: every serving reply's body
// starts with the request's wire ID.
func (p *phase) index(body []byte) (int, bool) {
	if len(body) < 8 {
		return 0, false
	}
	i := int64(binary.BigEndian.Uint64(body)) - int64(p.base) - 1
	if i < 0 || i >= int64(len(p.ops)) {
		return 0, false
	}
	return int(i), true
}

// driveInproc replays the phase through direct daemon.Backend calls from
// the same number of goroutines: no socket, framing or session. Control
// ops run on goroutine 0 in order, data ops on the last.
func driveInproc(p *phase, t *target, be *daemon.Backend) {
	lanes := make([][]int, conns)
	qi := 0
	for i, o := range p.ops {
		switch {
		case o.kind == opQuery:
			lanes[qi%conns] = append(lanes[qi%conns], i)
			qi++
		case o.kind.control():
			lanes[0] = append(lanes[0], i)
		default:
			lanes[conns-1] = append(lanes[conns-1], i)
		}
	}
	start := time.Now()
	p.start = start
	clock := func() int64 { return int64(time.Since(start)) }
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				warn("%v", err)
				return
			}
			defer pc.close()
			var planID uint64
			for _, i := range lane {
				if wait := time.Duration(p.ops[i].at - clock()); wait > 0 && p.ops[i].kind != opCommit {
					if pc.sleep(wait) != nil {
						return
					}
				}
				r := &p.recs[i]
				r.sent = clock()
				if p.ops[i].kind == opCommit {
					r.due = r.sent
				}
				planID = applyInproc(p, i, t, be, planID)
				r.done = clock()
			}
		}(lane)
	}
	wg.Wait()
}

// applyInproc executes op i against the backend and fills its record. It
// returns the plan ID a following commit applies.
func applyInproc(p *phase, i int, t *target, be *daemon.Backend, planID uint64) uint64 {
	o, r := &p.ops[i], &p.recs[i]
	r.lo = t.mirror.acked.Load()
	if steps := stepsOf(o); steps != nil {
		r.lo = t.mirror.record(steps)
		t.mirror.sent.Store(r.lo)
		defer t.mirror.acked.Store(r.lo)
	}
	defer func() { r.hi = t.mirror.sent.Load() }()
	var err error
	switch o.kind {
	case opQuery:
		res := be.Query(o.req)
		r.ok, r.found, r.path = true, res.Found, res.Path
	case opFail:
		_, _, _, err = be.Fail(o.a, o.b)
		r.ok = err == nil
	case opRestore:
		_, _, err = be.Restore(o.a, o.b)
		r.ok = err == nil
	case opPolicy:
		be.SetPolicy(o.a, o.cost)
		r.ok = true
	case opPlan:
		rep := be.HandlePlan(&wire.Plan{Steps: o.steps})
		r.ok, r.n = rep.OK(), rep.Evicted
		return rep.PlanID
	case opCommit:
		rep := be.HandlePlan(&wire.Plan{Commit: true, PlanID: planID})
		r.ok = rep.OK() && rep.Committed
	case opInstall:
		h, path, found := be.Install(o.req)
		r.ok, r.found, r.path = true, found, path
		if found {
			t.handles.add(h)
		}
	case opSend:
		be.Send(t.handles.pick(o.arg))
		r.ok = true
	case opTick:
		be.Tick(int64(o.arg))
		r.ok = true
	case opRefresh:
		be.Refresh()
		r.ok = true
	}
	return planID
}
