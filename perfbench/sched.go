package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/wire"
)

// opKind is one scheduled operation. Control-path kinds (fail through
// commit) are serialized: the next one is sent only after the previous
// reply, as an operator console would.
type opKind uint8

const (
	opQuery opKind = iota
	opFail
	opRestore
	opPolicy
	opPlan   // what-if proposal; its reply schedules the paired commit
	opCommit // applies the paired plan; due when the plan reply arrives
	opInstall
	opSend
	opTick
	opRefresh
)

func (k opKind) control() bool { return k >= opFail && k <= opCommit }

// op is one scheduled request. at is its due time in nanoseconds from the
// phase start; latency is measured from it.
type op struct {
	at     int64
	kind   opKind
	req    policy.Request
	a, b   ad.ID
	cost   uint32
	arg    uint32
	steps  []wire.PlanStep // opPlan: the proposal; opCommit: what it applies
	commit int             // opPlan: index of the paired opCommit
}

// poisson returns the arrival times of a Poisson process at rate per
// second over [0, dur) nanoseconds.
func poisson(rng *rand.Rand, rate float64, dur int64) []int64 {
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if int64(t) >= dur {
			return out
		}
		out = append(out, int64(t))
	}
}

// cursor hands out consecutive slices of the world's query population, so
// no two phases of a run share queries unless the pool wraps.
type cursor struct{ next int }

func (c *cursor) take(pool []policy.Request, n int) []policy.Request {
	out := make([]policy.Request, n)
	for i := range out {
		out[i] = pool[c.next%len(pool)]
		c.next++
	}
	return out
}

// queryOps schedules open-loop queries at rate per second for dur ns.
func queryOps(rng *rand.Rand, w *world, cur *cursor, rate float64, dur int64) []op {
	ats := poisson(rng, rate, dur)
	reqs := cur.take(w.pool, len(ats))
	ops := make([]op, len(ats))
	for i, at := range ats {
		ops[i] = op{at: at, kind: opQuery, req: reqs[i]}
	}
	return ops
}

// writeGen generates the scheduled write stream: scoped link fail/restore
// and policy-cost changes, what-if plans each followed by its commit, and
// the soft-state data-plane mix of install, send, tick and refresh. Its
// state carries across phases, so every restore names a link its own
// chain failed. The direct and planned chains use disjoint links, so at
// most one link per chain is down at once.
type writeGen struct {
	w       *world
	rng     *rand.Rand
	links   []ad.Link
	directK int
	planK   int
	mixK    int
	dataK   int
}

// newWriteGen cycles over every link of the world in one shuffled order
// fixed by the world: a change's cost scales with its blast radius, so
// every seed writes to the same targets and the seed varies only the
// timing and the data-plane traffic.
func newWriteGen(w *world, seed int64) *writeGen {
	links := append([]ad.Link(nil), w.links...)
	rand.New(rand.NewSource(w.seed)).Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	return &writeGen{w: w, rng: rand.New(rand.NewSource(seed ^ 0x5bd1e995)), links: links}
}

// direct is the next op of the cycle fail L, policy, restore L, policy.
func (g *writeGen) direct(at int64) op {
	k := g.directK
	g.directK++
	links := g.links[:len(g.links)/2]
	l := links[(k/4)%len(links)]
	o := op{at: at}
	switch k % 4 {
	case 0:
		o.kind, o.a, o.b = opFail, l.A, l.B
	case 2:
		o.kind, o.a, o.b = opRestore, l.A, l.B
	default:
		o.kind, o.a = opPolicy, g.w.transits[(k/2)%len(g.w.transits)]
		o.cost = uint32(1 + g.rng.Intn(8))
	}
	return o
}

// planned is the next plan of the cycle plan-fail L, plan-restore L,
// followed by its commit.
func (g *writeGen) planned(at int64) []op {
	k := g.planK
	g.planK++
	links := g.links[len(g.links)/2:]
	l := links[(k/2)%len(links)]
	step := wire.PlanStep{Op: wire.CtlFail, A: l.A, B: l.B}
	if k%2 == 1 {
		step.Op = wire.CtlRestore
	}
	steps := []wire.PlanStep{step}
	return []op{{at: at, kind: opPlan, steps: steps}, {at: at, kind: opCommit, steps: steps}}
}

// ops schedules a phase's writes over dur ns: control ops at ctlRate
// (with withPlans, two of every six are plans) and data ops at dataRate.
func (g *writeGen) ops(ctlRate, dataRate float64, dur int64, withPlans bool) []op {
	var out []op
	if ctlRate > 0 {
		for _, at := range evenly(g.rng, ctlRate, dur) {
			k := g.mixK
			g.mixK++
			if withPlans && (k%6 == 1 || k%6 == 4) {
				out = append(out, g.planned(at)...)
			} else {
				out = append(out, g.direct(at))
			}
		}
	}
	if dataRate > 0 {
		for _, at := range evenly(g.rng, dataRate, dur) {
			k := g.dataK
			g.dataK++
			o := op{at: at, arg: uint32(g.rng.Int31())}
			switch {
			case k%128 == 127:
				// An idle gap longer than the TTL: unrefreshed state expires.
				o.kind, o.arg = opTick, 40
			case k%32 == 31:
				o.kind = opRefresh
			case k%8 == 6:
				o.kind, o.arg = opTick, 5
			case k%2 == 0:
				o.kind, o.req = opInstall, g.w.pool[g.rng.Intn(len(g.w.pool))]
			default:
				o.kind = opSend
			}
			out = append(out, o)
		}
	}
	return out
}

// planOps schedules plan→commit pairs alone at rate per second.
func (g *writeGen) planOps(rate float64, dur int64) []op {
	var out []op
	for _, at := range evenly(g.rng, rate, dur) {
		out = append(out, g.planned(at)...)
	}
	return out
}

// merge orders a phase's operations by due time and links each plan to
// its commit.
func merge(parts ...[]op) []op {
	var all []op
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	for i := range all {
		if all[i].kind == opPlan {
			for j := i + 1; j < len(all); j++ {
				if all[j].kind == opCommit && all[j].commit == 0 && sameSteps(all[j].steps, all[i].steps) {
					all[i].commit = j
					all[j].commit = -1
					break
				}
			}
		}
	}
	return all
}

// sameSteps reports whether two ops carry the very same step slice: a plan
// and the commit generated with it share one.
func sameSteps(a, b []wire.PlanStep) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// handles is the pool of live flow handles installs returned; sends pick
// from it.
type handles struct {
	mu sync.Mutex
	hs []uint64
}

func (h *handles) add(x uint64) {
	h.mu.Lock()
	h.hs = append(h.hs, x)
	h.mu.Unlock()
}

func (h *handles) pick(r uint32) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.hs) == 0 {
		return 0
	}
	return h.hs[int(r)%len(h.hs)]
}

// mirror replays the control mutations the harness sent onto its own
// copy of the world, one version per mutation, so the oracle can judge an
// answer against the topology and policy in force when it was served.
type mirror struct {
	// sent is the newest version the harness has sent; acked the newest
	// the server has confirmed. An answer is judged against the versions
	// in force between its send and its reply.
	sent, acked atomic.Uint32
	base        *world
	mu          sync.Mutex
	muts        [][]wire.PlanStep
	states      []core.Oracle // states[v]: after the first v mutations
}

func newMirror(w *world) *mirror {
	return &mirror{base: w, states: []core.Oracle{{G: w.g, DB: w.db}}}
}

// record appends a mutation and returns its version.
func (m *mirror) record(steps []wire.PlanStep) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.muts = append(m.muts, steps)
	return uint32(len(m.muts))
}

// oracle returns the ground truth at version v, materializing versions on
// first use (checks run after the measured phase).
func (m *mirror) oracle(v uint32) core.Oracle {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.states) <= int(v) {
		prev := m.states[len(m.states)-1]
		o := core.Oracle{G: prev.G.Clone(), DB: prev.DB.Clone()}
		for _, st := range m.muts[len(m.states)-1] {
			switch st.Op {
			case wire.CtlFail:
				o.G.RemoveLink(st.A, st.B)
			case wire.CtlRestore:
				if l, ok := m.base.g.LinkBetween(st.A, st.B); ok {
					_ = o.G.AddLink(l) // an earlier mutation removed it; the daemon re-adds the same link
				}
			case wire.CtlPolicy:
				t := policy.OpenTerm(st.A, 0)
				t.Cost = st.Cost
				o.DB.SetTerms(st.A, []policy.Term{t})
			}
		}
		m.states = append(m.states, o)
	}
	return m.states[v]
}

// stepsOf is the mutation a control op applies (nil for a plan, which
// changes nothing).
func stepsOf(o *op) []wire.PlanStep {
	switch o.kind {
	case opFail:
		return []wire.PlanStep{{Op: wire.CtlFail, A: o.a, B: o.b}}
	case opRestore:
		return []wire.PlanStep{{Op: wire.CtlRestore, A: o.a, B: o.b}}
	case opPolicy:
		return []wire.PlanStep{{Op: wire.CtlPolicy, A: o.a, Cost: o.cost}}
	case opCommit:
		return o.steps
	}
	return nil
}

// evenly returns arrival times at a fixed rate per second over [0, dur)
// ns, starting at a random offset. Writes are paced evenly rather than
// Poisson: they are few, so their latency percentiles should reflect
// service time, not the bunching of one seed's arrivals.
func evenly(rng *rand.Rand, rate float64, dur int64) []int64 {
	var out []int64
	step := 1e9 / rate
	for t := rng.Float64() * step; int64(t) < dur; t += step {
		out = append(out, int64(t))
	}
	return out
}
