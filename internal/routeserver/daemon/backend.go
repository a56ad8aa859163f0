// Package daemon makes the route-server serving layer (§5.4) a real
// network daemon: per-connection sessions speaking the framed binary
// protocol of internal/wire (route queries, control-plane mutations,
// data-plane operations, stats, graceful drain) over TCP or unix sockets,
// with bounded per-session write queues, slow-client eviction, connection
// limits, and drain semantics (stop accepting, finish in-flight requests,
// flush replies, close).
//
// The command dispatch itself lives in Backend, shared by the binary
// protocol and cmd/routed's stdin line mode, so both front ends execute
// identical operations against the same serving state — the session-parity
// test in cmd/routed pins this.
package daemon

import (
	"fmt"
	"sync"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/plan"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// Backend bundles the serving state one daemon (or line-mode session)
// operates on and dispatches every protocol command against it. Queries
// and data-plane operations are safe for any number of concurrent
// sessions (Server and DataPlane synchronize internally); control-plane
// mutations are serialized by the backend's own lock, which also protects
// the failed-link memory and makes graph reads in control handlers safe
// against concurrent mutation (all graph writes happen under this lock,
// inside MutateScoped's exclusive section).
type Backend struct {
	srv *routeserver.Server
	dp  *routeserver.DataPlane
	g   *ad.Graph
	db  *policy.DB

	mu sync.Mutex
	// removed remembers links taken down by Fail so Restore can re-add
	// them with their original class and cost.
	removed map[[2]ad.ID]ad.Link

	// plans holds pending what-if plans by ID, awaiting Commit or
	// displacement (the store is bounded; the oldest plan is dropped when
	// a new one would exceed maxPendingPlans).
	planSeq uint64
	plans   map[uint64]*pendingPlan

	// replicate, when set, is called inside each control mutation's
	// MutateScoped closure — i.e. under the server's strategy lock — so an
	// HA primary appends the op to its sync backlog in exactly the order
	// mutations interleave with cache inserts. Nil outside an HA group.
	replicate func(op uint8, a, b ad.ID, cost uint32)
	// connMetrics, when set, reports the daemon's connection counters for
	// the stats command. Nil on front ends with no daemon (line mode).
	connMetrics func() Metrics
}

// Stats is the serving-counter snapshot the stats command reports.
type Stats struct {
	Gen       uint64
	Queries   uint64
	Hits      uint64
	Coalesced uint64
	Misses    uint64
	Failures  uint64
	Cached    int
	// Connection counters, filled only when the backend fronts a daemon
	// (ConnsKnown true): sessions accepted, evicted for slow consumption,
	// and refused at the connection limit or during drain.
	ConnsKnown  bool
	Accepted    uint64
	EvictedSlow uint64
	Refused     uint64
}

// NewBackend wires a backend over the serving stack.
func NewBackend(srv *routeserver.Server, dp *routeserver.DataPlane, g *ad.Graph, db *policy.DB) *Backend {
	return &Backend{
		srv: srv, dp: dp, g: g, db: db,
		removed: make(map[[2]ad.ID]ad.Link),
	}
}

// Server returns the wrapped route server.
func (b *Backend) Server() *routeserver.Server { return b.srv }

// SetReplicator registers the HA replication hook; fn is invoked inside
// every control mutation's exclusive section. Set it before the backend
// starts serving.
func (b *Backend) SetReplicator(fn func(op uint8, a, b ad.ID, cost uint32)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.replicate = fn
}

// SetConnMetrics registers the daemon connection-counter source the stats
// command reports. daemon.New wires it automatically.
func (b *Backend) SetConnMetrics(fn func() Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.connMetrics = fn
}

// repl calls the replication hook if one is registered. Callers hold the
// strategy lock (it runs inside MutateScoped closures).
func (b *Backend) repl(op uint8, x, y ad.ID, cost uint32) {
	if b.replicate != nil {
		b.replicate(op, x, y, cost)
	}
}

// Query answers one route request.
func (b *Backend) Query(req policy.Request) routeserver.Result {
	return b.srv.Query(req)
}

// Fail takes the x-y link down: scoped cache invalidation, then a flush of
// installed handle state crossing the link (failure-driven repair).
func (b *Backend) Fail(x, y ad.ID) (evicted, retained, flushed int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fail(x, y)
}

// fail is Fail's body; caller holds b.mu (Commit loops it over a batch
// under one hold).
func (b *Backend) fail(x, y ad.ID) (evicted, retained, flushed int, err error) {
	link, found := linkOf(b.g, x, y)
	if !found {
		return 0, 0, 0, fmt.Errorf("no link %v-%v", x, y)
	}
	b.removed[[2]ad.ID{link.A, link.B}] = link
	evicted, retained = b.srv.MutateScoped(
		synthesis.LinkDownChange(x, y), func() {
			b.g.RemoveLink(x, y)
			b.repl(wire.CtlFail, x, y, 0)
		})
	flushed = b.dp.InvalidateLink(x, y)
	return evicted, retained, flushed, nil
}

// Restore brings a previously failed x-y link back up with its original
// class and cost. Retained entries stay legal but may no longer be optimal
// until a full invalidation.
func (b *Backend) Restore(x, y ad.ID) (evicted, retained int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.restore(x, y)
}

// restore is Restore's body; caller holds b.mu.
func (b *Backend) restore(x, y ad.ID) (evicted, retained int, err error) {
	key := ad.Link{A: x, B: y}.Canonical()
	link, found := b.removed[[2]ad.ID{key.A, key.B}]
	if !found {
		return 0, 0, fmt.Errorf("link %v-%v was not failed here", x, y)
	}
	delete(b.removed, [2]ad.ID{key.A, key.B})
	evicted, retained = b.srv.MutateScoped(
		synthesis.LinkUpChange(x, y), func() {
			_ = b.g.AddLink(link)
			b.repl(wire.CtlRestore, x, y, 0)
		})
	return evicted, retained, nil
}

// SetPolicy replaces a's terms with one open term of the given cost,
// scoping the invalidation to the term keys that actually changed.
func (b *Backend) SetPolicy(a ad.ID, cost uint32) (evicted, retained int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.setPolicy(a, cost)
}

// setPolicy is SetPolicy's body; caller holds b.mu.
func (b *Backend) setPolicy(a ad.ID, cost uint32) (evicted, retained int) {
	term := policy.OpenTerm(a, 0)
	term.Cost = cost
	ch := synthesis.PolicyChangeOf(b.db.DiffTerms(a, []policy.Term{term}))
	return b.srv.MutateScoped(ch, func() {
		b.db.SetTerms(a, []policy.Term{term})
		b.repl(wire.CtlPolicy, a, 0, cost)
	})
}

// Invalidate forces the full generation bump, restoring optimality after
// scoped retentions, and returns the new generation.
func (b *Backend) Invalidate() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.srv.Mutate(func() { b.repl(wire.CtlInvalidate, 0, 0, 0) })
	return b.srv.Generation()
}

// HandleControl executes one wire.Control — fail, restore, policy or a
// full invalidation — against the backend and builds the reply. It is the
// single control execution path shared by the daemon protocol, HA
// followers replaying the primary's stream, cmd/routed's line mode and the
// in-process load target's churn, so every front end mutates identically
// (the session-parity test pins this).
func (b *Backend) HandleControl(q *wire.Control) *wire.ControlReply {
	rep := &wire.ControlReply{ID: q.ID}
	switch q.Op {
	case wire.CtlFail:
		evicted, retained, flushed, err := b.Fail(q.A, q.B)
		if err != nil {
			rep.Code, rep.Err = wire.CtlErr, err.Error()
			break
		}
		rep.Evicted, rep.Retained, rep.Flushed =
			uint64(evicted), uint64(retained), uint64(flushed)
	case wire.CtlRestore:
		evicted, retained, err := b.Restore(q.A, q.B)
		if err != nil {
			rep.Code, rep.Err = wire.CtlErr, err.Error()
			break
		}
		rep.Evicted, rep.Retained = uint64(evicted), uint64(retained)
	case wire.CtlPolicy:
		evicted, retained := b.SetPolicy(q.A, q.Cost)
		rep.Evicted, rep.Retained = uint64(evicted), uint64(retained)
	case wire.CtlInvalidate:
		rep.Gen = b.Invalidate()
	default:
		rep.Code, rep.Err = wire.CtlErr, "unknown control op"
	}
	return rep
}

// maxPendingPlans bounds the uncommitted-plan store: plans are cheap to
// recompute, so an operator juggling more than this many proposals just
// re-plans the displaced one.
const maxPendingPlans = 16

// pendingPlan is one computed, not-yet-committed what-if plan.
type pendingPlan struct {
	steps  []plan.Step
	report *plan.Report
}

// Plan computes the blast radius of applying steps, in order, against the
// live serving state — read-only, under the same lock control mutations
// take — and parks the batch under a fresh plan ID for a later Commit. The
// recorded query log (when the server has one) is replayed as the assessed
// workload.
func (b *Backend) Plan(steps []plan.Step) (id uint64, rep *plan.Report, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep, err = plan.Compute(b.srv, b.dp, b.g, b.db, b.removed, steps,
		plan.Config{Workload: b.srv.RecentQueries()})
	if err != nil {
		return 0, nil, err
	}
	b.planSeq++
	id = b.planSeq
	if b.plans == nil {
		b.plans = make(map[uint64]*pendingPlan)
	}
	if len(b.plans) >= maxPendingPlans {
		oldest := uint64(0)
		for pid := range b.plans {
			if oldest == 0 || pid < oldest {
				oldest = pid
			}
		}
		delete(b.plans, oldest)
	}
	b.plans[id] = &pendingPlan{steps: steps, report: rep}
	return id, rep, nil
}

// CommitStep records what one applied plan step actually did.
type CommitStep struct {
	Evicted, Retained, Flushed int
}

// CommitResult records what applying a whole plan actually did: per-step
// counts plus the batch totals (Retained is the final step's count —
// what is still cached once the batch has landed).
type CommitResult struct {
	Steps             []CommitStep
	Evicted, Retained int
	Flushed           int
}

// Commit applies a previously computed plan. The staleness guard refuses
// if the server's mutation epoch moved since the plan was computed — any
// conflicting control mutation (not a routine cache fill) bumps it, so a
// stale plan's predictions can no longer be trusted and the operator must
// re-plan. A committed (or refused-as-stale) plan leaves the store; on a
// mid-batch step error the earlier steps stay applied, exactly as if
// issued individually, and the error reports which step failed.
func (b *Backend) Commit(id uint64) (CommitResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.plans[id]
	if !ok {
		return CommitResult{}, fmt.Errorf("unknown plan %d", id)
	}
	delete(b.plans, id)
	if now := b.srv.Epoch(); now != p.report.Epoch {
		return CommitResult{}, fmt.Errorf("plan %d is stale: mutation epoch moved %d -> %d, re-plan",
			id, p.report.Epoch, now)
	}
	var out CommitResult
	for i, st := range p.steps {
		var cs CommitStep
		var err error
		switch st.Kind {
		case plan.StepFail:
			cs.Evicted, cs.Retained, cs.Flushed, err = b.fail(st.A, st.B)
		case plan.StepRestore:
			cs.Evicted, cs.Retained, err = b.restore(st.A, st.B)
		case plan.StepPolicy:
			cs.Evicted, cs.Retained = b.setPolicy(st.A, st.Cost)
		default:
			err = fmt.Errorf("unknown step kind %d", st.Kind)
		}
		if err != nil {
			return out, fmt.Errorf("plan %d step %d (%s): %v", id, i+1, st.Label(), err)
		}
		out.Steps = append(out.Steps, cs)
		out.Evicted += cs.Evicted
		out.Retained = cs.Retained
		out.Flushed += cs.Flushed
	}
	return out, nil
}

// Stats snapshots the serving counters.
func (b *Backend) Stats() Stats {
	m := b.srv.Snapshot()
	st := Stats{
		Gen:       b.srv.Generation(),
		Queries:   m.Queries,
		Hits:      m.Hits,
		Coalesced: m.Coalesced,
		Misses:    m.Misses,
		Failures:  m.Failures,
		Cached:    b.srv.CacheLen(),
	}
	b.mu.Lock()
	connMetrics := b.connMetrics
	b.mu.Unlock()
	if connMetrics != nil {
		cm := connMetrics()
		st.ConnsKnown = true
		st.Accepted = cm.Accepted
		st.EvictedSlow = cm.Evicted
		st.Refused = cm.Refused
	}
	return st
}

// Install serves a route for req and installs it as PG handle state.
func (b *Backend) Install(req policy.Request) (handle uint64, path ad.Path, found bool) {
	res := b.srv.Query(req)
	if !res.Found {
		return 0, nil, false
	}
	return b.dp.Install(req, res.Path), res.Path, true
}

// Send forwards one data packet over handle.
func (b *Backend) Send(handle uint64) routeserver.SendResult {
	return b.dp.Send(handle)
}

// Refresh re-asserts every live flow's soft state.
func (b *Backend) Refresh() (refreshed, failed int) {
	return b.dp.RefreshAll()
}

// Tick advances the data plane's logical clock by secs seconds and returns
// the new clock reading plus the expired-entry count.
func (b *Backend) Tick(secs int64) (nowSecs int64, expired int) {
	expired = b.dp.Tick(sim.Time(secs) * sim.Second)
	return int64(b.dp.Now() / sim.Second), expired
}

// Repair re-establishes every flow queued by misses or failures.
func (b *Backend) Repair() (attempted, repaired int) {
	return b.dp.Repair(b.srv)
}

// State reports the data-plane metrics.
func (b *Backend) State() routeserver.DataPlaneMetrics {
	return b.dp.Metrics()
}

// linkOf returns the graph's link between a and b, if present.
func linkOf(g *ad.Graph, a, b ad.ID) (ad.Link, bool) {
	want := ad.Link{A: a, B: b}.Canonical()
	for _, l := range g.Links() {
		if l.A == want.A && l.B == want.B {
			return l, true
		}
	}
	return ad.Link{}, false
}
