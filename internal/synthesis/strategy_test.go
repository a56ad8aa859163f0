package synthesis

import (
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/topology"
)

// TestPrunedPrecomputesConfiguredClasses is the regression test for the
// class-blind precompute bug: the table was built only for (QOS 0, UCI 0),
// so any workload with QOSClasses/UCIClasses > 0 could never hit it (the
// cache key includes both classes).
func TestPrunedPrecomputesConfiguredClasses(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	st := NewPrunedConfig(g, db, []ad.ID{s}, PrunedConfig{
		HopRadius: 3, QOSClasses: 2, UCIClasses: 2,
	})
	for qos := 0; qos < 2; qos++ {
		for uci := 0; uci < 2; uci++ {
			req := policy.Request{Src: s, Dst: d, Hour: 12,
				QOS: policy.QOS(qos), UCI: policy.UCI(uci)}
			if _, ok := st.Route(req); !ok {
				t.Fatalf("no route for %v", req)
			}
		}
	}
	stats := st.Stats()
	if stats.Misses != 0 {
		t.Fatalf("class-spread requests missed the precomputed table: %+v", stats)
	}
	if stats.Hits != 4 {
		t.Fatalf("Hits = %d, want 4", stats.Hits)
	}

	// The default constructor precomputes class 0 only; a class-1 request
	// must take the on-demand path (documenting the narrower semantics).
	def := NewPruned(g, db, []ad.ID{s}, 3)
	if _, ok := def.Route(policy.Request{Src: s, Dst: d, QOS: 1, Hour: 12}); !ok {
		t.Fatal("no on-demand route")
	}
	if got := def.Stats(); got.Misses != 1 {
		t.Fatalf("default-class strategy should miss on QOS 1: %+v", got)
	}
}

// classedWorkload builds distinct cold requests across a generated internet.
func classedWorkload(t *testing.T) (*ad.Graph, *policy.DB, []policy.Request) {
	t.Helper()
	topo := topology.Generate(topology.Config{Seed: 7, LateralProb: 0.3})
	g := topo.Graph
	db := policy.OpenDB(g)
	ids := g.IDs()
	var reqs []policy.Request
	for i, s := range ids {
		for j, d := range ids {
			if i == j {
				continue
			}
			reqs = append(reqs, policy.Request{Src: s, Dst: d, Hour: 12})
			if len(reqs) >= 40 {
				return g, db, reqs
			}
		}
	}
	return g, db, reqs
}

func TestHybridDemandCapEvicts(t *testing.T) {
	g, db, reqs := classedWorkload(t)
	const capn = 4
	st := NewHybridCapped(g, db, nil, capn)
	served := 0
	for _, r := range reqs {
		if _, ok := st.Route(r); ok {
			served++
		}
	}
	if served < capn+2 {
		t.Skipf("only %d routable requests; need > %d", served, capn+1)
	}
	stats := st.Stats()
	if stats.CacheEntries > capn {
		t.Fatalf("demand cache exceeded cap: %d > %d", stats.CacheEntries, capn)
	}
	if stats.Evictions == 0 {
		t.Fatalf("no evictions reported under cap pressure: %+v", stats)
	}
	if stats.Evictions != served-capn {
		t.Fatalf("Evictions = %d, want %d (served %d, cap %d)",
			stats.Evictions, served-capn, served, capn)
	}
}

func TestPrunedDemandCapEvicts(t *testing.T) {
	g, db, reqs := classedWorkload(t)
	const capn = 3
	// No sources precomputed: every request is a demand fill.
	st := NewPrunedConfig(g, db, nil, PrunedConfig{HopRadius: 1, DemandCap: capn})
	served := 0
	for _, r := range reqs {
		if _, ok := st.Route(r); ok {
			served++
		}
	}
	if served < capn+2 {
		t.Skipf("only %d routable requests; need > %d", served, capn+1)
	}
	stats := st.Stats()
	if stats.CacheEntries > capn {
		t.Fatalf("demand cache exceeded cap: %d > %d", stats.CacheEntries, capn)
	}
	if stats.Evictions == 0 {
		t.Fatalf("no evictions reported under cap pressure: %+v", stats)
	}
}

// TestInvalidatePreservesStats pins the copy-forward semantics of
// Strategy.Invalidate for all four strategies: cumulative counters (hits,
// misses, failures, expansion work, evictions) survive an invalidation;
// only the table state is rebuilt.
func TestInvalidatePreservesStats(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	hot := []policy.Request{{Src: s, Dst: d, Hour: 12}}
	workload := []policy.Request{
		{Src: s, Dst: d, Hour: 12},
		{Src: d, Dst: s, Hour: 12},
		{Src: s, Dst: d, QOS: 1, Hour: 12},
		{Src: ad.ID(999), Dst: d, Hour: 12}, // unroutable: source not in graph
	}
	build := map[string]func() Strategy{
		"on-demand":   func() Strategy { return NewOnDemand(g, db) },
		"precomputed": func() Strategy { return NewPrecomputed(g, db, hot) },
		"hybrid":      func() Strategy { return NewHybridCapped(g, db, hot, 8) },
		"pruned": func() Strategy {
			return NewPrunedConfig(g, db, []ad.ID{s, d}, PrunedConfig{HopRadius: 2, DemandCap: 8})
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			st := mk()
			for _, r := range workload {
				st.Route(r)
			}
			before := st.Stats()
			if before.Hits+before.Misses != len(workload) {
				t.Fatalf("accounting broken before invalidation: %+v", before)
			}
			st.Invalidate()
			after := st.Stats()
			if after.Hits != before.Hits || after.Misses != before.Misses ||
				after.Failures != before.Failures {
				t.Fatalf("request counters not preserved:\nbefore %+v\nafter  %+v", before, after)
			}
			if after.OnDemandExpansions != before.OnDemandExpansions {
				t.Fatalf("on-demand work not preserved:\nbefore %+v\nafter  %+v", before, after)
			}
			if after.PrecomputeExpansions < before.PrecomputeExpansions {
				t.Fatalf("precompute work went backwards:\nbefore %+v\nafter  %+v", before, after)
			}
			if after.Evictions != before.Evictions {
				t.Fatalf("evictions not preserved:\nbefore %+v\nafter  %+v", before, after)
			}
			// The strategy must keep serving and accumulating afterwards.
			if _, ok := st.Route(policy.Request{Src: s, Dst: d, Hour: 12}); !ok {
				t.Fatal("strategy cannot serve after Invalidate")
			}
			final := st.Stats()
			if final.Hits+final.Misses != after.Hits+after.Misses+1 {
				t.Fatalf("counters stopped accumulating after Invalidate: %+v", final)
			}
		})
	}
}

// TestNewStrategyKinds builds every named strategy over the diamond and
// serves a route through each; an unknown name is an error.
func TestNewStrategyKinds(t *testing.T) {
	g, s, _, _, d := diamond(t)
	db := policy.OpenDB(g)
	req := policy.Request{Src: s, Dst: d}
	for _, kind := range []string{"on-demand", "precomputed", "hybrid", "pruned"} {
		st, err := NewStrategy(kind, g, db, []policy.Request{req}, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if path, found := st.Route(req); !found || len(path) == 0 {
			t.Errorf("%s: no route served", kind)
		}
	}
	if _, err := NewStrategy("bogus", g, db, nil, 1, 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}
