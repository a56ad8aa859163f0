// Package plan is the what-if engine the paper's §6 calls for ("tools to
// help predict the impact of policies"): it takes a proposed change — or an
// ordered batch, e.g. a staged policy rollout — and computes its blast
// radius on the live serving layer before anything is applied.
//
// A plan is computed in two phases. First, a read-only snapshot under the
// server's strategy lock (Server.CollectAffected): the graph and policy
// database are cloned twice from one consistent cut, the batch is applied
// to the post-change clones through Apply — the same step interpreter a
// commit runs — to derive each step's synthesis.Change, and each
// change's cache victims are resolved through the same reverse indexes and
// AffectsPath/AffectsNegative soundness rules scoped eviction applies —
// without deleting anything. Nothing a concurrent query can observe is
// mutated, and the snapshot cost is proportional to the batch's blast
// radius (index fan-out), not to the cache size. Second, outside all server
// locks, a bounded worker pool shadow-re-synthesizes the affected
// population (the recorded workload plus every evicted pair and torn-down
// flow) against the pre- and post-change clones to find which pairs lose
// all routes, folding the per-request classifications through
// policytool.Impact so plan reports and policytool assessments can never
// disagree.
//
// The report carries the epoch the snapshot corresponds to; the
// plan-then-commit workflow in daemon.Backend refuses to commit a plan
// whose epoch the server has moved past (any conflicting mutation — not a
// routine cache fill — bumps it).
package plan

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ad"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/policytool"
	"repro/internal/routeserver"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// Apply is the one interpreter of a control step — fail a link, restore
// a link failed here, or replace an AD's terms with one open term of the
// given cost — shared by the live backend, its plan/commit workflow, and
// scenario plan events, so a prediction and the commit it precedes apply
// the same step by construction. It checks st against g, db and failed
// (the link exists; the link was failed here and is down; the AD exists),
// records or clears the failed-link entry, and derives the step's
// synthesis.Change; it returns the graph or policy mutation for the caller
// to run (the backend runs it inside MutateScoped). On error nothing is
// touched.
func Apply(st wire.PlanStep, g *ad.Graph, db *policy.DB, failed map[[2]ad.ID]ad.Link) (synthesis.Change, func(), error) {
	key := synthesis.CanonicalPair(st.A, st.B)
	switch st.Op {
	case wire.CtlFail:
		link, ok := g.LinkBetween(st.A, st.B)
		if !ok {
			return synthesis.Change{}, nil, fmt.Errorf("no link %v-%v", st.A, st.B)
		}
		failed[key] = link
		return synthesis.LinkDownChange(st.A, st.B), func() { g.RemoveLink(st.A, st.B) }, nil
	case wire.CtlRestore:
		link, ok := failed[key]
		if !ok {
			return synthesis.Change{}, nil, fmt.Errorf("link %v-%v was not failed here", st.A, st.B)
		}
		if g.HasLink(st.A, st.B) {
			return synthesis.Change{}, nil, fmt.Errorf("link %v-%v is already up", st.A, st.B)
		}
		delete(failed, key)
		return synthesis.LinkUpChange(st.A, st.B), func() { _ = g.AddLink(link) }, nil
	case wire.CtlPolicy:
		if _, ok := g.AD(st.A); !ok {
			return synthesis.Change{}, nil, fmt.Errorf("unknown AD %v", st.A)
		}
		term := policy.OpenTerm(st.A, 0)
		term.Cost = st.Cost
		terms := []policy.Term{term}
		return synthesis.PolicyChangeOf(db.DiffTerms(st.A, terms)), func() { db.SetTerms(st.A, terms) }, nil
	default:
		return synthesis.Change{}, nil, fmt.Errorf("unknown control op %d", st.Op)
	}
}

// Config bounds a plan computation.
type Config struct {
	// Workers bounds the shadow re-synthesis pool (default GOMAXPROCS).
	Workers int
	// Budget caps the population size the shadow pool re-synthesizes
	// (each member costs two FindRoutes). 0 means the 8192 default; < 0
	// means unbounded. When the affected population exceeds it, the
	// population is truncated deterministically (sorted order) and the
	// report is marked Truncated.
	Budget int
	// Workload is the recorded traffic to assess — typically the server's
	// query-log ring (Server.RecentQueries()) — so "which pairs lose all
	// routes" reflects real traffic, not just cache residency.
	Workload []policy.Request
}

// StepReport is the predicted effect of one step, in batch order. Counts
// are incremental: a cache entry or flow already claimed by an earlier
// step is not counted again, mirroring sequential application.
type StepReport struct {
	Step   wire.PlanStep
	Change synthesis.Change
	// Evicted counts cache entries this step newly evicts; Retained is
	// the current-generation population still cached after it.
	Evicted, Retained int
	// Teardowns counts live data-plane flows this step newly tears down.
	Teardowns int
}

// Bill is the estimated re-synthesis cost of the batch: every evicted
// cache key whose next query must run a synthesis, priced by the live
// synthesis-latency histogram.
type Bill struct {
	// Count is the number of re-syntheses the batch provokes (one per
	// evicted key on its next miss; coalescing dedupes concurrent ones).
	Count int
	// PerSynth and P95 are the mean and 95th-percentile observed
	// synthesis latencies; Projected is Count × PerSynth. All zero when
	// the server has not yet observed a synthesis.
	PerSynth, P95, Projected time.Duration
}

// Report is the predicted blast radius of a plan batch.
type Report struct {
	// Steps holds the per-step predictions in batch order.
	Steps []StepReport
	// EvictedKeys is the sorted union of cache keys the batch evicts;
	// Retained is the current-generation population left cached.
	EvictedKeys []routeserver.Key
	Retained    int
	// Teardowns is the sorted union of live flow handles torn down.
	Teardowns []uint64
	// Population is the sorted, deduplicated set of requests the shadow
	// pool assessed: the recorded workload, every evicted pair, and every
	// torn-down flow's intent. Truncated reports whether the budget cut
	// it short.
	Population []policy.Request
	Truncated  bool
	// Impact classifies the population before vs after the batch through
	// the shared policytool path (gained/lost/rerouted, transit shift).
	Impact policytool.Impact
	// Unroutable lists pairs that lose all routes (routable before, not
	// after) — Impact.Lost's requests. UnroutableAfter lists every
	// assessed pair with no route after, whether or not it had one.
	Unroutable      []policy.Request
	UnroutableAfter []policy.Request
	// Bill is the estimated re-synthesis cost.
	Bill Bill
	// Epoch and Gen identify the server state the plan was computed
	// against; a commit must refuse if the epoch has moved since.
	Epoch, Gen uint64
}

// Compute predicts the blast radius of applying steps, in order, to the
// serving stack: srv's route cache, dp's installed flow state (nil when no
// data plane is attached), and the g/db the strategy synthesizes over.
// removed is the failed-link memory restore steps resolve against
// (Backend's map); Compute never mutates any of them. The caller must hold
// whatever lock serializes control mutations (Backend.Plan holds the
// backend lock), so g, db, and removed are stable for the duration.
func Compute(srv *routeserver.Server, dp *routeserver.DataPlane, g *ad.Graph, db *policy.DB, removed map[[2]ad.ID]ad.Link, steps []wire.PlanStep, cfg Config) (*Report, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("empty plan")
	}

	// Phase 1: consistent snapshot under the strategy lock. prepare clones
	// the pre-change state, applies the batch to a second clone to derive
	// each step's Change, and CollectAffected resolves the victims.
	var (
		gBefore, gAfter   *ad.Graph
		dbBefore, dbAfter *policy.DB
		changes           []synthesis.Change
	)
	prepare := func() ([]synthesis.Change, error) {
		gBefore, dbBefore = g.Clone(), db.Clone()
		gAfter, dbAfter = g.Clone(), db.Clone()
		rem := make(map[[2]ad.ID]ad.Link, len(removed))
		for k, v := range removed {
			rem[k] = v
		}
		changes = make([]synthesis.Change, len(steps))
		for i, st := range steps {
			ch, mutate, err := Apply(st, gAfter, dbAfter, rem)
			if err != nil {
				return nil, fmt.Errorf("step %d: %v", i+1, err)
			}
			mutate()
			changes[i] = ch
		}
		return changes, nil
	}
	perChange, live, epoch, gen, err := srv.CollectAffected(prepare)
	if err != nil {
		return nil, err
	}

	rep := &Report{Epoch: epoch, Gen: gen}

	// Per-step incremental evictions over the snapshot. Union semantics
	// mirror sequential application exactly: a victim of step i that an
	// earlier step already evicted is gone by the time step i runs.
	evicted := make(map[routeserver.Key]routeserver.CacheEntry)
	tornDown := make(map[uint64]struct{})
	for i, ents := range perChange {
		sr := StepReport{Step: steps[i], Change: changes[i]}
		for _, ent := range ents {
			if _, dup := evicted[ent.Key]; !dup {
				evicted[ent.Key] = ent
				sr.Evicted++
			}
		}
		sr.Retained = live - len(evicted)
		if steps[i].Op == wire.CtlFail && dp != nil {
			for _, h := range dp.FlowsCrossing(steps[i].A, steps[i].B) {
				if _, dup := tornDown[h]; !dup {
					tornDown[h] = struct{}{}
					sr.Teardowns++
				}
			}
		}
		rep.Steps = append(rep.Steps, sr)
	}
	rep.Retained = live - len(evicted)
	for k := range evicted {
		rep.EvictedKeys = append(rep.EvictedKeys, k)
	}
	sortKeys(rep.EvictedKeys)
	for h := range tornDown {
		rep.Teardowns = append(rep.Teardowns, h)
	}
	sort.Slice(rep.Teardowns, func(i, j int) bool { return rep.Teardowns[i] < rep.Teardowns[j] })

	// Affected population: recorded workload ∪ evicted pairs ∪ torn-down
	// flow intents, deduplicated by serving key and sorted.
	seen := make(map[routeserver.Key]struct{})
	add := func(req policy.Request) {
		k := routeserver.KeyOf(req)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			rep.Population = append(rep.Population, req)
		}
	}
	for _, req := range cfg.Workload {
		add(req)
	}
	for _, k := range rep.EvictedKeys {
		add(k.Request())
	}
	if dp != nil {
		for _, h := range rep.Teardowns {
			if f, ok := dp.Flow(h); ok {
				add(f.Req)
			}
		}
	}
	sortRequests(rep.Population)
	budget := cfg.Budget
	if budget == 0 {
		budget = 8192
	}
	if budget > 0 && len(rep.Population) > budget {
		rep.Population = rep.Population[:budget]
		rep.Truncated = true
	}

	// Phase 2: shadow re-synthesis against the clones, outside all server
	// locks. FindRoute only reads the graph/policy state, so a shared
	// clone pair is safe for the whole pool; results land by index, so the
	// fold below is deterministic at any parallelism.
	focus := focusAD(steps)
	before := make([]synthesis.Result, len(rep.Population))
	after := make([]synthesis.Result, len(rep.Population))
	tasks := make([]func(), len(rep.Population))
	for i := range rep.Population {
		i := i
		tasks[i] = func() {
			before[i] = synthesis.FindRoute(gBefore, dbBefore, rep.Population[i])
			after[i] = synthesis.FindRoute(gAfter, dbAfter, rep.Population[i])
		}
	}
	parallel.Do(parallel.Normalize(cfg.Workers), tasks)
	rep.Impact = policytool.Impact{
		AD:          focus,
		TermsBefore: len(dbBefore.Terms(focus)),
		TermsAfter:  len(dbAfter.Terms(focus)),
	}
	for i, req := range rep.Population {
		rep.Impact.Add(req, before[i], after[i])
		if !after[i].Found {
			rep.UnroutableAfter = append(rep.UnroutableAfter, req)
		}
	}
	for _, pc := range rep.Impact.Lost {
		rep.Unroutable = append(rep.Unroutable, pc.Req)
	}

	// The re-synthesis bill: one synthesis per evicted key on its next
	// miss, priced from the live histogram.
	lat := srv.Snapshot().SynthLatency
	rep.Bill = Bill{
		Count:     len(rep.EvictedKeys),
		PerSynth:  lat.Mean,
		P95:       lat.P95,
		Projected: time.Duration(len(rep.EvictedKeys)) * lat.Mean,
	}
	return rep, nil
}

// focusAD picks the AD whose transit load the impact summary tracks: the
// first policy step's advertiser, else the first step's A endpoint.
func focusAD(steps []wire.PlanStep) ad.ID {
	for _, st := range steps {
		if st.Op == wire.CtlPolicy {
			return st.A
		}
	}
	return steps[0].A
}

// sortKeys orders cache keys by (Src, Dst, QOS, UCI, Hour).
func sortKeys(keys []routeserver.Key) {
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
}

func keyLess(a, b routeserver.Key) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.QOS != b.QOS {
		return a.QOS < b.QOS
	}
	if a.UCI != b.UCI {
		return a.UCI < b.UCI
	}
	return a.Hour < b.Hour
}

// sortRequests orders requests by their serving key.
func sortRequests(reqs []policy.Request) {
	sort.Slice(reqs, func(i, j int) bool {
		return keyLess(routeserver.KeyOf(reqs[i]), routeserver.KeyOf(reqs[j]))
	})
}
