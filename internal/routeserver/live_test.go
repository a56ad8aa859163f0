package routeserver

import (
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/synthesis"
)

// checkLive asserts the per-shard live counters — the O(shards) retained
// count MutateScoped and CollectAffected report — agree with an O(cache)
// recount of current-generation entries.
func checkLive(t *testing.T, srv *Server, when string) {
	t.Helper()
	gen := srv.gen.Load()
	var live, want int
	for i := range srv.shards {
		sh := &srv.shards[i]
		sh.mu.Lock()
		live += sh.live
		want += sh.retainedCurrent(gen)
		sh.mu.Unlock()
	}
	if live != want {
		t.Fatalf("%s: live counters say %d current-gen entries, recount says %d", when, live, want)
	}
}

// TestLiveCounterInvariant drives every path that moves the counter —
// fills, overwrites, scoped evictions, full bumps, stale-on-sight lazy
// deletion, capacity eviction — and recounts after each.
func TestLiveCounterInvariant(t *testing.T) {
	g, db, srv, src, t1, _, dst, src2, iso := scopedWorld(t)
	_ = db

	reqs := []policy.Request{
		{Src: src, Dst: dst}, {Src: src, Dst: dst, QOS: 1},
		{Src: src2, Dst: dst}, {Src: src, Dst: t1},
		{Src: src, Dst: iso}, // negative entry
	}
	for _, req := range reqs {
		srv.Query(req)
	}
	checkLive(t, srv, "after fills")

	// Re-query: overwrite-free hits must not drift the counter.
	for _, req := range reqs {
		srv.Query(req)
	}
	checkLive(t, srv, "after hits")

	// Scoped eviction.
	srv.MutateScoped(synthesis.LinkDownChange(t1, dst), func() { g.RemoveLink(t1, dst) })
	checkLive(t, srv, "after scoped link-down")
	srv.Query(policy.Request{Src: src, Dst: dst})
	checkLive(t, srv, "after refill")

	// Full bump zeroes the counters; the stale entries still resident must
	// not be counted.
	srv.MutateScoped(synthesis.FullChange(), nil)
	checkLive(t, srv, "after full bump")

	// Stale-on-sight: looking up a stale key deletes it lazily.
	for _, req := range reqs {
		srv.Query(req)
	}
	checkLive(t, srv, "after stale-on-sight refills")

	// Overwrite of a current-generation entry (same key re-inserted via
	// the coalescing path is the common case; InstallEntry is the direct
	// one).
	ents := srv.DumpEntries(nil)
	for _, e := range ents {
		srv.InstallEntry(e.Key, e.Res, e.Fp)
	}
	checkLive(t, srv, "after overwrites")
}

// TestLiveCounterCapacityEviction pins the OnEvict leg: capacity
// evictions of current-generation entries decrement the counter.
func TestLiveCounterCapacityEviction(t *testing.T) {
	g, db, _, src, _, _, dst, _, _ := scopedWorld(t)
	srv := New(synthesis.NewOnDemand(g, db), Config{Capacity: 2, Shards: 1})
	for h := 0; h < 8; h++ {
		srv.Query(policy.Request{Src: src, Dst: dst, Hour: uint8(h)})
	}
	if n := srv.CacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
	checkLive(t, srv, "after capacity churn")
}

// TestQueryLogRing pins the recorded-workload ring: capacity bounds it,
// recent() returns oldest-first, and a zero capacity disables recording.
func TestQueryLogRing(t *testing.T) {
	g, db, _, src, t1, t2, dst, _, _ := scopedWorld(t)
	srv := New(synthesis.NewOnDemand(g, db), Config{QueryLog: 4})
	if got := srv.RecentQueries(); got != nil {
		t.Fatalf("empty log returned %v", got)
	}
	seq := []policy.Request{
		{Src: src, Dst: dst}, {Src: src, Dst: t1}, {Src: src, Dst: t2},
		{Src: src, Dst: dst, QOS: 1}, {Src: t1, Dst: dst}, {Src: t2, Dst: dst},
	}
	for _, req := range seq {
		srv.Query(req)
	}
	want := seq[len(seq)-4:]
	if got := srv.RecentQueries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RecentQueries = %v, want last 4 oldest-first %v", got, want)
	}

	unlogged := New(synthesis.NewOnDemand(g, db), Config{})
	unlogged.Query(policy.Request{Src: src, Dst: dst})
	if got := unlogged.RecentQueries(); got != nil {
		t.Fatalf("disabled log returned %v", got)
	}
}

// TestCollectAffectedMatchesEvictScoped pins that the read-only victim
// resolution CollectAffected does for the plan engine names exactly the
// entries a real MutateScoped of the same change evicts.
func TestCollectAffectedMatchesEvictScoped(t *testing.T) {
	g, db, srv, src, t1, t2, dst, src2, iso := scopedWorld(t)
	_, _ = db, t2
	for _, req := range []policy.Request{
		{Src: src, Dst: dst}, {Src: src2, Dst: dst},
		{Src: src, Dst: t1}, {Src: src, Dst: iso},
	} {
		srv.Query(req)
	}

	ch := synthesis.LinkDownChange(t1, dst)
	perChange, live, epoch, gen, err := srv.CollectAffected(func() ([]synthesis.Change, error) {
		return []synthesis.Change{ch}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != srv.Epoch() || gen != srv.Generation() {
		t.Fatalf("snapshot at %d/%d, server at %d/%d", epoch, gen, srv.Epoch(), srv.Generation())
	}
	if live != srv.CacheLen() {
		t.Fatalf("live = %d, cache holds %d", live, srv.CacheLen())
	}

	evicted, retained := srv.MutateScoped(ch, func() { g.RemoveLink(t1, dst) })
	if evicted != len(perChange[0]) {
		t.Errorf("MutateScoped evicted %d, CollectAffected predicted %d", evicted, len(perChange[0]))
	}
	if retained != live-len(perChange[0]) {
		t.Errorf("MutateScoped retained %d, predicted %d", retained, live-len(perChange[0]))
	}
	after := make(map[Key]bool)
	for _, e := range srv.DumpEntries(nil) {
		after[e.Key] = true
	}
	for _, e := range perChange[0] {
		if after[e.Key] {
			t.Errorf("predicted victim %+v survived", e.Key)
		}
	}
}
