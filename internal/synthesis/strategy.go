package synthesis

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/policy"
)

// StrategyStats instruments a synthesis strategy for experiment E7.
type StrategyStats struct {
	// PrecomputeExpansions is search work done up front.
	PrecomputeExpansions int
	// OnDemandExpansions is search work done at request time.
	OnDemandExpansions int
	// Hits are requests answered from the precomputed table.
	Hits int
	// Misses are requests that required an on-demand computation.
	Misses int
	// Failures are requests for which no legal route exists.
	Failures int
	// CacheEntries is the current size of the route table.
	CacheEntries int
	// Evictions counts demand-fill entries dropped for capacity.
	Evictions int
}

// Strategy is a route synthesis strategy: given a traffic request, produce a
// legal route, accounting the work performed.
//
// The contract has two planes. The read plane — Route, Footprint, Stats,
// Name — is safe for any number of concurrent goroutines: routes are
// resolved against the strategy's current tables, demand fills land in
// internally locked sharded caches, and counters are atomics merged on
// read. The write plane — Invalidate and InvalidateScoped — rebuilds those
// tables and requires exclusive access: no read-plane call may be in
// flight while a write-plane call runs. The serving layer enforces this
// with a sync.RWMutex (misses hold the read side, mutations the write
// side); code driving a strategy directly must provide the same exclusion.
type Strategy interface {
	// Route returns a legal route for req, or false if none exists.
	// Read plane: safe to call concurrently.
	Route(req policy.Request) (ad.Path, bool)
	// Stats returns cumulative instrumentation. Read plane.
	Stats() StrategyStats
	// Invalidate discards cached state after a topology/policy change.
	// Write plane: requires exclusive access. Cumulative counters survive;
	// CacheEntries reflects the rebuilt tables at the next Stats call.
	Invalidate()
	// InvalidateScoped discards only cached state the change can affect;
	// a ChangeFull is equivalent to Invalidate. Recompute work is charged
	// to PrecomputeExpansions. Write plane: requires exclusive access.
	InvalidateScoped(c Change)
	// Footprint reports the dependency set of a route this strategy
	// returned for req. Read plane: safe to call concurrently.
	Footprint(req policy.Request, path ad.Path) Footprint
	// Name identifies the strategy in reports.
	Name() string
}

// NewStrategy builds the named strategy — "on-demand", "precomputed",
// "hybrid" or "pruned" — over g and db for traffic in qos × uci classes
// (each at least 1). Precomputed covers every ordered stub pair in those
// classes at hour 12, hybrid precomputes the caller's hot set, and pruned
// precomputes within two hops of every stub. An unknown kind is an error.
func NewStrategy(kind string, g *ad.Graph, db *policy.DB, hot []policy.Request, qos, uci int) (Strategy, error) {
	var stubs []ad.ID
	for _, info := range g.ADs() {
		if info.Class == ad.Stub || info.Class == ad.MultihomedStub {
			stubs = append(stubs, info.ID)
		}
	}
	switch kind {
	case "on-demand":
		return NewOnDemand(g, db), nil
	case "precomputed":
		var all []policy.Request
		for q := 0; q < max(qos, 1); q++ {
			for u := 0; u < max(uci, 1); u++ {
				for _, src := range stubs {
					for _, dst := range stubs {
						if src != dst {
							all = append(all, policy.Request{Src: src, Dst: dst, QOS: policy.QOS(q), UCI: policy.UCI(u), Hour: 12})
						}
					}
				}
			}
		}
		return NewPrecomputed(g, db, all), nil
	case "hybrid":
		return NewHybrid(g, db, hot), nil
	case "pruned":
		return NewPrunedConfig(g, db, stubs, PrunedConfig{
			HopRadius: 2, QOSClasses: qos, UCIClasses: uci,
		}), nil
	}
	return nil, fmt.Errorf("unknown strategy %q; choose on-demand, precomputed, hybrid, or pruned", kind)
}

// refill reconciles one table entry with a scoped change: entries the
// change cannot touch are kept as-is; affected entries are recomputed in
// place (deleted if the route vanished), and absent entries are computed
// when the change broadens what is routable. Returns the search work done.
// Write plane only: it mutates the table without locking.
func refill(g *ad.Graph, db *policy.DB, table map[cacheKey]ad.Path, req policy.Request, c Change) int {
	k := keyOf(req)
	p, exists := table[k]
	if exists && !c.AffectsPath(p) {
		return 0
	}
	if !exists && !c.AffectsNegative() {
		return 0
	}
	res := FindRoute(g, db, req)
	if res.Found {
		table[k] = res.Path
	} else {
		delete(table, k)
	}
	return res.Expanded
}

// OnDemand computes every route at request time: minimal state, maximal
// setup latency (the paper: "on demand computation may introduce excessive
// latency at setup time", §5.4.1).
type OnDemand struct {
	g   *ad.Graph
	db  *policy.DB
	ctr counters
}

// NewOnDemand returns an on-demand strategy over the given view.
func NewOnDemand(g *ad.Graph, db *policy.DB) *OnDemand {
	return &OnDemand{g: g, db: db}
}

// Name implements Strategy.
func (s *OnDemand) Name() string { return "on-demand" }

// Route implements Strategy.
func (s *OnDemand) Route(req policy.Request) (ad.Path, bool) {
	res := FindRoute(s.g, s.db, req)
	s.ctr.onDemand.Add(int64(res.Expanded))
	s.ctr.misses.Add(1)
	if !res.Found {
		s.ctr.failures.Add(1)
		return nil, false
	}
	return res.Path, true
}

// Stats implements Strategy.
func (s *OnDemand) Stats() StrategyStats { return s.ctr.snapshot() }

// Invalidate implements Strategy (no cached state; cumulative counters
// survive).
func (s *OnDemand) Invalidate() {}

// InvalidateScoped implements Strategy (no cached state to scope).
func (s *OnDemand) InvalidateScoped(c Change) {
	if c.Kind == ChangeFull {
		s.Invalidate()
	}
}

// Footprint implements Strategy.
func (s *OnDemand) Footprint(req policy.Request, path ad.Path) Footprint {
	return FootprintOf(s.g, s.db, req, path)
}

// cacheKey identifies a precomputed route. Hour is quantized out: routes
// are recomputed only when term windows change legality, which the
// strategies treat as an invalidation event.
type cacheKey struct {
	src, dst ad.ID
	qos      policy.QOS
	uci      policy.UCI
}

func keyOf(req policy.Request) cacheKey {
	return cacheKey{src: req.Src, dst: req.Dst, qos: req.QOS, uci: req.UCI}
}

// Precomputed computes routes for an anticipated request population up
// front. Requests outside the precomputed set fail unless they hit the
// table ("precomputation of all policy routes in a large internet is
// computationally intractable", §5.4.1 — this strategy makes that cost
// measurable).
type Precomputed struct {
	g    *ad.Graph
	db   *policy.DB
	reqs []policy.Request
	// table is read concurrently by Route and replaced wholesale only on
	// the write plane; map reads need no lock as long as the caller keeps
	// the planes exclusive.
	table map[cacheKey]ad.Path
	ctr   counters
}

// NewPrecomputed builds the table for the given request population.
func NewPrecomputed(g *ad.Graph, db *policy.DB, reqs []policy.Request) *Precomputed {
	s := &Precomputed{g: g, db: db, reqs: reqs}
	s.build()
	return s
}

func (s *Precomputed) build() {
	s.table = make(map[cacheKey]ad.Path, len(s.reqs))
	for _, req := range s.reqs {
		res := FindRoute(s.g, s.db, req)
		s.ctr.precompute.Add(int64(res.Expanded))
		if res.Found {
			s.table[keyOf(req)] = res.Path
		}
	}
}

// Name implements Strategy.
func (s *Precomputed) Name() string { return "precomputed" }

// Route implements Strategy.
func (s *Precomputed) Route(req policy.Request) (ad.Path, bool) {
	if p, ok := s.table[keyOf(req)]; ok {
		s.ctr.hits.Add(1)
		return p, true
	}
	s.ctr.misses.Add(1)
	s.ctr.failures.Add(1)
	return nil, false
}

// Stats implements Strategy.
func (s *Precomputed) Stats() StrategyStats {
	st := s.ctr.snapshot()
	st.CacheEntries = len(s.table)
	return st
}

// Invalidate rebuilds the whole table, charging precompute work again.
func (s *Precomputed) Invalidate() {
	s.build()
}

// InvalidateScoped recomputes only the population entries the change can
// affect; the rest of the table keeps serving untouched.
func (s *Precomputed) InvalidateScoped(c Change) {
	if c.Kind == ChangeFull {
		s.Invalidate()
		return
	}
	for _, req := range s.reqs {
		s.ctr.precompute.Add(int64(refill(s.g, s.db, s.table, req, c)))
	}
}

// Footprint implements Strategy.
func (s *Precomputed) Footprint(req policy.Request, path ad.Path) Footprint {
	return FootprintOf(s.g, s.db, req, path)
}

// PrunedConfig parameterizes the pruned-precompute strategy.
type PrunedConfig struct {
	// HopRadius bounds the precomputed neighbourhood (< 1 means 2).
	HopRadius int
	// QOSClasses / UCIClasses are the traffic class counts to precompute
	// over: the table is built for every (qos, uci) in
	// [0,QOSClasses) x [0,UCIClasses). Values < 1 mean class 0 only. The
	// cache key includes both classes, so a strategy precomputed for class
	// 0 only can never serve a class-1 request from its table.
	QOSClasses int
	UCIClasses int
	// DemandCap bounds the demand-fill cache for requests outside the
	// precomputed neighbourhood (0 = unbounded).
	DemandCap int
}

func (c PrunedConfig) normalize() PrunedConfig {
	if c.HopRadius < 1 {
		c.HopRadius = 2
	}
	if c.QOSClasses < 1 {
		c.QOSClasses = 1
	}
	if c.UCIClasses < 1 {
		c.UCIClasses = 1
	}
	return c
}

// Pruned is a heuristic precomputation strategy in the direction the paper
// sketches ("precomputation could use heuristics to prune the search and
// limit it to commonly used routes", §5.4.1): for each source it precomputes
// routes only to destinations within HopRadius AD hops, on the observation
// that inter-AD traffic is dominated by nearby destinations; everything
// farther is computed on demand and cached (bounded by DemandCap).
type Pruned struct {
	g    *ad.Graph
	db   *policy.DB
	srcs []ad.ID
	cfg  PrunedConfig
	// HopRadius mirrors cfg.HopRadius for report labelling.
	HopRadius int
	table     map[cacheKey]ad.Path
	demand    *demandCache
	ctr       counters
}

// NewPruned builds the pruned-precompute strategy for the given sources with
// default traffic classes (class 0 only) and an unbounded demand cache.
func NewPruned(g *ad.Graph, db *policy.DB, srcs []ad.ID, hopRadius int) *Pruned {
	return NewPrunedConfig(g, db, srcs, PrunedConfig{HopRadius: hopRadius})
}

// NewPrunedConfig builds the pruned-precompute strategy with explicit
// neighbourhood, traffic-class, and demand-cache configuration.
func NewPrunedConfig(g *ad.Graph, db *policy.DB, srcs []ad.ID, cfg PrunedConfig) *Pruned {
	cfg = cfg.normalize()
	s := &Pruned{
		g: g, db: db, srcs: srcs, cfg: cfg, HopRadius: cfg.HopRadius,
		demand: newDemandCache(cfg.DemandCap),
	}
	s.build()
	return s
}

// withinRadius returns the ADs reachable from src within r hops (BFS on the
// raw topology, policy-blind — it is only a pruning heuristic).
func (s *Pruned) withinRadius(src ad.ID, r int) []ad.ID {
	depth := map[ad.ID]int{src: 0}
	queue := []ad.ID{src}
	var out []ad.ID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if depth[cur] >= r {
			continue
		}
		for _, nb := range s.g.Neighbors(cur) {
			if _, seen := depth[nb]; seen {
				continue
			}
			depth[nb] = depth[cur] + 1
			out = append(out, nb)
			queue = append(queue, nb)
		}
	}
	return out
}

func (s *Pruned) build() {
	s.table = make(map[cacheKey]ad.Path)
	for _, src := range s.srcs {
		for _, dst := range s.withinRadius(src, s.cfg.HopRadius) {
			for qos := 0; qos < s.cfg.QOSClasses; qos++ {
				for uci := 0; uci < s.cfg.UCIClasses; uci++ {
					req := policy.Request{
						Src: src, Dst: dst, Hour: 12,
						QOS: policy.QOS(qos), UCI: policy.UCI(uci),
					}
					res := FindRoute(s.g, s.db, req)
					s.ctr.precompute.Add(int64(res.Expanded))
					if res.Found {
						s.table[keyOf(req)] = res.Path
					}
				}
			}
		}
	}
}

// Name implements Strategy.
func (s *Pruned) Name() string { return "pruned" }

// Route implements Strategy.
func (s *Pruned) Route(req policy.Request) (ad.Path, bool) {
	k := keyOf(req)
	if p, ok := s.table[k]; ok {
		s.ctr.hits.Add(1)
		return p, true
	}
	if p, ok := s.demand.get(k); ok {
		s.ctr.hits.Add(1)
		return p, true
	}
	s.ctr.misses.Add(1)
	res := FindRoute(s.g, s.db, req)
	s.ctr.onDemand.Add(int64(res.Expanded))
	if !res.Found {
		s.ctr.failures.Add(1)
		return nil, false
	}
	s.demand.put(k, res.Path)
	return res.Path, true
}

// Stats implements Strategy.
func (s *Pruned) Stats() StrategyStats {
	st := s.ctr.snapshot()
	st.CacheEntries = len(s.table) + s.demand.len()
	st.Evictions = s.demand.evictions()
	return st
}

// Invalidate rebuilds the neighbourhood tables and drops demand fills.
func (s *Pruned) Invalidate() {
	s.demand.purge()
	s.build()
}

// InvalidateScoped refills only the affected slice of the post-change
// neighbourhood population. Table entries that fell outside the
// neighbourhood (a removed link can shrink it) are retained while legal —
// the contract is legality, not population membership — and dropped when
// the change touches them, leaving the demand path to recompute.
func (s *Pruned) InvalidateScoped(c Change) {
	if c.Kind == ChangeFull {
		s.Invalidate()
		return
	}
	seen := make(map[cacheKey]bool, len(s.table))
	for _, src := range s.srcs {
		for _, dst := range s.withinRadius(src, s.cfg.HopRadius) {
			for qos := 0; qos < s.cfg.QOSClasses; qos++ {
				for uci := 0; uci < s.cfg.UCIClasses; uci++ {
					req := policy.Request{
						Src: src, Dst: dst, Hour: 12,
						QOS: policy.QOS(qos), UCI: policy.UCI(uci),
					}
					seen[keyOf(req)] = true
					s.ctr.precompute.Add(int64(refill(s.g, s.db, s.table, req, c)))
				}
			}
		}
	}
	for k, p := range s.table {
		if !seen[k] && c.AffectsPath(p) {
			delete(s.table, k)
		}
	}
	s.demand.dropAffected(c)
}

// Footprint implements Strategy.
func (s *Pruned) Footprint(req policy.Request, path ad.Path) Footprint {
	return FootprintOf(s.g, s.db, req, path)
}

// Hybrid precomputes routes for a hot set of requests and falls back to
// on-demand computation (with caching, bounded by the demand cap) for the
// rest — the combination the paper recommends (§5.4.1: "a combination of
// precomputation and on-demand computation should be used").
type Hybrid struct {
	g      *ad.Graph
	db     *policy.DB
	hot    []policy.Request
	table  map[cacheKey]ad.Path
	demand *demandCache
	ctr    counters
}

// NewHybrid builds the hot-set table with an unbounded demand cache.
func NewHybrid(g *ad.Graph, db *policy.DB, hot []policy.Request) *Hybrid {
	return NewHybridCapped(g, db, hot, 0)
}

// NewHybridCapped builds the hot-set table with the demand-fill cache
// bounded to demandCap entries (0 = unbounded). Under streaming workloads
// the demand map otherwise grows without bound; evictions are reported in
// StrategyStats.
func NewHybridCapped(g *ad.Graph, db *policy.DB, hot []policy.Request, demandCap int) *Hybrid {
	s := &Hybrid{g: g, db: db, hot: hot,
		demand: newDemandCache(demandCap)}
	s.build()
	return s
}

func (s *Hybrid) build() {
	s.table = make(map[cacheKey]ad.Path, len(s.hot))
	for _, req := range s.hot {
		res := FindRoute(s.g, s.db, req)
		s.ctr.precompute.Add(int64(res.Expanded))
		if res.Found {
			s.table[keyOf(req)] = res.Path
		}
	}
}

// Name implements Strategy.
func (s *Hybrid) Name() string { return "hybrid" }

// Route implements Strategy.
func (s *Hybrid) Route(req policy.Request) (ad.Path, bool) {
	k := keyOf(req)
	if p, ok := s.table[k]; ok {
		s.ctr.hits.Add(1)
		return p, true
	}
	if p, ok := s.demand.get(k); ok {
		s.ctr.hits.Add(1)
		return p, true
	}
	s.ctr.misses.Add(1)
	res := FindRoute(s.g, s.db, req)
	s.ctr.onDemand.Add(int64(res.Expanded))
	if !res.Found {
		s.ctr.failures.Add(1)
		return nil, false
	}
	// Demand-filled entries serve later requests from the cache.
	s.demand.put(k, res.Path)
	return res.Path, true
}

// Stats implements Strategy.
func (s *Hybrid) Stats() StrategyStats {
	st := s.ctr.snapshot()
	st.CacheEntries = len(s.table) + s.demand.len()
	st.Evictions = s.demand.evictions()
	return st
}

// Invalidate drops demand-filled entries and rebuilds the hot set.
func (s *Hybrid) Invalidate() {
	s.demand.purge()
	s.build()
}

// InvalidateScoped refills affected hot-set entries and evicts only the
// affected demand fills; unaffected entries keep serving.
func (s *Hybrid) InvalidateScoped(c Change) {
	if c.Kind == ChangeFull {
		s.Invalidate()
		return
	}
	for _, req := range s.hot {
		s.ctr.precompute.Add(int64(refill(s.g, s.db, s.table, req, c)))
	}
	s.demand.dropAffected(c)
}

// Footprint implements Strategy.
func (s *Hybrid) Footprint(req policy.Request, path ad.Path) Footprint {
	return FootprintOf(s.g, s.db, req, path)
}
