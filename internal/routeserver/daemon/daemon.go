package daemon

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Config parameterizes a Daemon. The zero value is usable: 2048
// connections, 128-message write queues, 2s slow-client grace.
type Config struct {
	// MaxConns bounds concurrent sessions; connections beyond it are
	// refused (closed immediately). Default 2048.
	MaxConns int
	// WriteQueue is the per-session outbound reply queue length; a
	// pipelining client that stops reading fills it. Default 128.
	WriteQueue int
	// WriteTimeout is how long a session blocks on a full write queue (or
	// a stuck socket write) before the client is declared slow and
	// evicted. Default 2s.
	WriteTimeout time.Duration
}

func (c Config) normalize() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 2048
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 128
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	return c
}

// Metrics is a snapshot of the daemon's connection counters.
type Metrics struct {
	// Accepted counts sessions ever started; Active of them are live now.
	Accepted, Active uint64
	// Refused counts connections closed at the limit or during drain.
	Refused uint64
	// Evicted counts sessions closed for slow consumption.
	Evicted uint64
	// Requests counts dispatched protocol requests.
	Requests uint64
}

// Daemon serves the route-server protocol over any number of listeners.
// All exported methods are safe for concurrent use.
type Daemon struct {
	be  *Backend
	cfg Config

	mu        sync.Mutex
	sessions  map[*session]struct{}
	listeners map[net.Listener]struct{}
	draining  bool

	wg        sync.WaitGroup // live sessions
	drainOnce sync.Once
	done      chan struct{} // closed when a drain completes

	accepted atomic.Uint64
	refused  atomic.Uint64
	evicted  atomic.Uint64
	requests atomic.Uint64

	redirect atomic.Pointer[redirectFunc]
}

// redirectFunc reports whether requests should be redirected and where:
// an HA follower answers Query/Control/DataOp with NotPrimary naming the
// current primary's client address.
type redirectFunc func() (primaryID uint32, addr string, redirect bool)

// New builds a daemon over the backend and wires the backend's stats
// command to this daemon's connection counters.
func New(be *Backend, cfg Config) *Daemon {
	d := &Daemon{
		be:        be,
		cfg:       cfg.normalize(),
		sessions:  make(map[*session]struct{}),
		listeners: make(map[net.Listener]struct{}),
		done:      make(chan struct{}),
	}
	be.SetConnMetrics(d.Metrics)
	return d
}

// SetRedirect installs (or with nil removes) the HA redirect gate: while
// fn reports true, Query/Control/DataOp/Plan requests are answered with
// NotPrimary instead of being dispatched. Stats and Drain are always
// served locally — operators can inspect and drain a follower directly.
func (d *Daemon) SetRedirect(fn func() (primaryID uint32, addr string, redirect bool)) {
	if fn == nil {
		d.redirect.Store(nil)
		return
	}
	rf := redirectFunc(fn)
	d.redirect.Store(&rf)
}

// Serve accepts connections on ln until the listener closes. It returns
// nil when the close was a drain, the accept error otherwise. Call it from
// one goroutine per listener.
func (d *Daemon) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		ln.Close()
		return nil
	}
	d.listeners[ln] = struct{}{}
	d.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			d.mu.Lock()
			delete(d.listeners, ln)
			draining := d.draining
			d.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		go d.ServeConn(conn)
	}
}

// ServeConn runs one session over an established connection and blocks
// until it ends. Exported so sessions are testable without sockets (e.g.
// over net.Pipe). The connection is refused — closed immediately — at the
// connection limit or during drain.
func (d *Daemon) ServeConn(conn net.Conn) {
	d.mu.Lock()
	if d.draining || len(d.sessions) >= d.cfg.MaxConns {
		d.mu.Unlock()
		d.refused.Add(1)
		conn.Close()
		return
	}
	s := &session{
		d:    d,
		conn: conn,
		out:  make(chan wire.Message, d.cfg.WriteQueue),
	}
	d.sessions[s] = struct{}{}
	d.wg.Add(1)
	d.accepted.Add(1)
	d.mu.Unlock()

	defer func() {
		d.mu.Lock()
		delete(d.sessions, s)
		d.mu.Unlock()
		d.wg.Done()
	}()
	s.run()
}

// Drain shuts the daemon down gracefully: stop accepting, let every
// session finish the request it is processing, flush queued replies, and
// close. Idempotent; blocks until the drain completes. Safe to call from
// inside a session (the Drain protocol message does, via a goroutine).
func (d *Daemon) Drain() {
	d.drainOnce.Do(func() {
		d.mu.Lock()
		d.draining = true
		lns := make([]net.Listener, 0, len(d.listeners))
		for ln := range d.listeners {
			lns = append(lns, ln)
		}
		sess := make([]*session, 0, len(d.sessions))
		for s := range d.sessions {
			sess = append(sess, s)
		}
		d.mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}
		for _, s := range sess {
			s.beginDrain()
		}
		d.wg.Wait()
		close(d.done)
	})
	<-d.done
}

// Kill shuts the daemon down abruptly: stop accepting and close every
// live session's connection without flushing queued replies — the
// SIGKILL model HA failover is built against (clients observe connection
// errors, not a drain). Blocks until every session goroutine has exited.
// A later Drain still completes (and closes Done) immediately.
func (d *Daemon) Kill() {
	d.mu.Lock()
	d.draining = true
	lns := make([]net.Listener, 0, len(d.listeners))
	for ln := range d.listeners {
		lns = append(lns, ln)
	}
	sess := make([]*session, 0, len(d.sessions))
	for s := range d.sessions {
		sess = append(sess, s)
	}
	d.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, s := range sess {
		s.close()
	}
	d.wg.Wait()
}

// Done is closed once a drain has completed.
func (d *Daemon) Done() <-chan struct{} { return d.done }

// Metrics snapshots the connection counters.
func (d *Daemon) Metrics() Metrics {
	d.mu.Lock()
	active := len(d.sessions)
	d.mu.Unlock()
	return Metrics{
		Accepted: d.accepted.Load(),
		Active:   uint64(active),
		Refused:  d.refused.Load(),
		Evicted:  d.evicted.Load(),
		Requests: d.requests.Load(),
	}
}

// session is one connection's state: a reader loop that decodes and
// dispatches requests, and a writer goroutine that drains the bounded
// reply queue. The reader enqueues replies with backpressure: a full queue
// beyond the write-timeout grace means the client is not consuming and the
// session is evicted.
type session struct {
	d    *Daemon
	conn net.Conn
	out  chan wire.Message

	closeOnce sync.Once
	draining  atomic.Bool
}

func (s *session) run() {
	writerDone := make(chan struct{})
	go s.writer(writerDone)

	for {
		m, err := wire.ReadMessage(s.conn)
		if err != nil {
			// EOF, a malformed frame, eviction, or the drain deadline:
			// either way this session takes no more requests.
			break
		}
		s.d.requests.Add(1)
		reply, drain := s.d.dispatch(m)
		if reply != nil && !s.send(reply) {
			break
		}
		if drain {
			// Ack first (already queued), then drain from outside the
			// session: Drain waits for this very session to finish.
			go s.d.Drain()
		}
	}
	// Flush whatever the writer still holds, then close the connection.
	close(s.out)
	<-writerDone
	s.close()
}

// writer drains the reply queue to the connection through a buffered
// writer, flushing whenever the queue goes momentarily idle so pipelined
// replies batch but interactive clients never wait.
func (s *session) writer(done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriter(s.conn)
	for m := range s.out {
		if s.d.cfg.WriteTimeout > 0 {
			s.conn.SetWriteDeadline(time.Now().Add(s.d.cfg.WriteTimeout))
		}
		if err := wire.WriteMessage(bw, m); err != nil {
			s.evict()
			continue // drain the queue so the reader never blocks on it
		}
		if len(s.out) == 0 {
			if err := bw.Flush(); err != nil {
				s.evict()
			}
		}
	}
	bw.Flush()
}

// send enqueues a reply, giving a slow client the write-timeout grace to
// make room before evicting it. Reports whether the session should go on.
func (s *session) send(m wire.Message) bool {
	select {
	case s.out <- m:
		return true
	default:
	}
	t := time.NewTimer(s.d.cfg.WriteTimeout)
	defer t.Stop()
	select {
	case s.out <- m:
		return true
	case <-t.C:
		s.evict()
		return false
	}
}

// evict closes a slow client's connection; the reader and writer unblock
// with errors and the session winds down.
func (s *session) evict() {
	s.closeOnce.Do(func() {
		s.d.evicted.Add(1)
		s.conn.Close()
	})
}

// beginDrain stops the reader from taking new requests: the read deadline
// pops immediately, while the request being dispatched (if any) still
// completes and its reply is flushed before the connection closes.
func (s *session) beginDrain() {
	s.draining.Store(true)
	s.conn.SetReadDeadline(time.Now())
}

func (s *session) close() {
	s.closeOnce.Do(func() { s.conn.Close() })
}

// redirectable is a request a follower hands to the primary: queries,
// control ops, data-plane ops and plans carry RequestID; stats and drain do
// not, so they are always answered locally.
type redirectable interface{ RequestID() uint64 }

// dispatch executes one protocol request against the backend and builds
// the reply. The drain result asks the session to trigger a daemon drain
// after the ack is queued.
func (d *Daemon) dispatch(m wire.Message) (reply wire.Message, drain bool) {
	if p := d.redirect.Load(); p != nil {
		if q, ok := m.(redirectable); ok {
			if id, addr, redir := (*p)(); redir {
				return &wire.NotPrimary{ID: q.RequestID(), PrimaryID: id, Addr: addr}, false
			}
		}
	}
	switch q := m.(type) {
	case *wire.Query:
		res := d.be.Query(q.Req)
		return &wire.QueryReply{ID: q.ID, Found: res.Found, Path: res.Path}, false

	case *wire.Control:
		return d.be.HandleControl(q), false

	case *wire.DataOp:
		rep := &wire.DataOpReply{ID: q.ID, Op: q.Op}
		switch q.Op {
		case wire.OpInstall:
			handle, path, found := d.be.Install(q.Req)
			if !found {
				rep.Code = wire.DataNoRoute
				break
			}
			rep.Handle, rep.Path = handle, path
		case wire.OpSend:
			switch r := d.be.Send(q.Handle); {
			case r.Delivered:
			case r.MissAt != 0:
				rep.Code, rep.N1 = wire.DataNoState, uint64(r.MissAt)
			default:
				rep.Code = wire.DataUnknownHandle
			}
		case wire.OpRefresh:
			refreshed, failed := d.be.Refresh()
			rep.N1, rep.N2 = uint64(refreshed), uint64(failed)
		case wire.OpTick:
			secs := int64(q.Arg)
			if secs <= 0 {
				secs = 1
			}
			now, expired := d.be.Tick(secs)
			rep.N1, rep.N2 = uint64(now), uint64(expired)
		case wire.OpRepair:
			attempted, repaired := d.be.Repair()
			rep.N1, rep.N2 = uint64(attempted), uint64(repaired)
		case wire.OpState:
			rep.Text = d.be.State().String()
		default:
			rep.Code = wire.DataBadOp
		}
		return rep, false

	case *wire.Plan:
		return d.be.HandlePlan(q), false

	case *wire.StatsQuery:
		st := d.be.Stats()
		return &wire.StatsReply{
			ID: q.ID, Gen: st.Gen, Queries: st.Queries, Hits: st.Hits,
			Coalesced: st.Coalesced, Misses: st.Misses, Failures: st.Failures,
			Cached:   uint64(st.Cached),
			Accepted: st.Accepted, EvictedSlow: st.EvictedSlow, Refused: st.Refused,
		}, false

	case *wire.Drain:
		return &wire.ControlReply{ID: q.ID}, true

	default:
		// A routing-protocol message (or a reply) is not a request this
		// daemon serves.
		return &wire.ControlReply{Code: wire.CtlErr, Err: "unexpected " + m.Type().String()}, false
	}
}
