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

// apply runs one control step against the live state through the shared
// step interpreter (plan.Apply): the graph or policy mutation and the HA
// replication hook run inside one MutateScoped exclusive section, and a
// link failure then flushes installed handle state crossing the link
// (failure-driven repair). A refused step touches nothing — no epoch bump,
// nothing replicated. Caller holds b.mu.
func (b *Backend) apply(st wire.PlanStep) (CommitStep, error) {
	ch, mutate, err := plan.Apply(st, b.g, b.db, b.removed)
	if err != nil {
		return CommitStep{}, err
	}
	var cs CommitStep
	cs.Evicted, cs.Retained = b.srv.MutateScoped(ch, func() {
		mutate()
		b.repl(st.Op, st.A, st.B, st.Cost)
	})
	if st.Op == wire.CtlFail {
		cs.Flushed = b.dp.InvalidateLink(st.A, st.B)
	}
	return cs, nil
}

// step applies one control step under the backend lock.
func (b *Backend) step(st wire.PlanStep) (CommitStep, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.apply(st)
}

// Fail takes the x-y link down: scoped cache invalidation, then a flush of
// installed handle state crossing the link (failure-driven repair).
func (b *Backend) Fail(x, y ad.ID) (evicted, retained, flushed int, err error) {
	cs, err := b.step(wire.PlanStep{Op: wire.CtlFail, A: x, B: y})
	return cs.Evicted, cs.Retained, cs.Flushed, err
}

// Restore brings a previously failed x-y link back up with its original
// class and cost. Retained entries stay legal but may no longer be optimal
// until a full invalidation.
func (b *Backend) Restore(x, y ad.ID) (evicted, retained int, err error) {
	cs, err := b.step(wire.PlanStep{Op: wire.CtlRestore, A: x, B: y})
	return cs.Evicted, cs.Retained, err
}

// SetPolicy replaces a's terms with one open term of the given cost,
// scoping the invalidation to the term keys that actually changed. An
// unknown AD is refused: nothing changes and both counts are zero
// (HandleControl reports the error).
func (b *Backend) SetPolicy(a ad.ID, cost uint32) (evicted, retained int) {
	cs, _ := b.step(wire.PlanStep{Op: wire.CtlPolicy, A: a, Cost: cost})
	return cs.Evicted, cs.Retained
}

// Invalidate forces the full generation bump, restoring optimality after
// scoped retentions, and returns the new generation.
func (b *Backend) Invalidate() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.srv.MutateScoped(synthesis.FullChange(), func() { b.repl(wire.CtlInvalidate, 0, 0, 0) })
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
	if q.Op == wire.CtlInvalidate {
		rep.Gen = b.Invalidate()
		return rep
	}
	cs, err := b.step(wire.PlanStep{Op: q.Op, A: q.A, B: q.B, Cost: q.Cost})
	if err != nil {
		rep.Code, rep.Err = wire.CtlErr, err.Error()
		return rep
	}
	rep.Evicted, rep.Retained, rep.Flushed =
		uint64(cs.Evicted), uint64(cs.Retained), uint64(cs.Flushed)
	return rep
}

// maxPendingPlans bounds the uncommitted-plan store: plans are cheap to
// recompute, so an operator juggling more than this many proposals just
// re-plans the displaced one.
const maxPendingPlans = 16

// pendingPlan is one computed, not-yet-committed what-if plan.
type pendingPlan struct {
	steps  []wire.PlanStep
	report *plan.Report
}

// Plan computes the blast radius of applying steps, in order, against the
// live serving state — read-only, under the same lock control mutations
// take — and parks the batch under a fresh plan ID for a later Commit. The
// recorded query log (when the server has one) is replayed as the assessed
// workload.
func (b *Backend) Plan(steps []wire.PlanStep) (id uint64, rep *plan.Report, err error) {
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
		cs, err := b.apply(st)
		if err != nil {
			return out, fmt.Errorf("plan %d step %d (%s): %v", id, i+1, st, err)
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
