package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/routeserver/ha"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// world is one workload's generated input: the topology and policy the
// serving stack starts from (never mutated; stacks clone it), the query
// population the schedules draw from in order, and the write targets.
type world struct {
	seed int64 // what generated g and db
	g    *ad.Graph
	db   *policy.DB
	pool []policy.Request
	// warm is the key population queried before timing (nil = cold start).
	warm []policy.Request
	// links are fail/restore targets; transits are policy-change targets.
	links    []ad.Link
	transits []ad.ID
}

// poolSize bounds the generated query population. The cold workload's
// phases take disjoint slices of it, so it must exceed every query a run
// schedules; the hot workload reuses it cyclically.
const poolSize = 1 << 18

// worldSeed generates every workload's topology and policy, as benchSeed
// does for the repository's own benchmarks. The run's seed draws the
// traffic, the arrival schedules and the data-plane picks: with a world
// drawn per seed, write-path costs, which follow a change's blast radius,
// differed up to 2x between seeds.
const worldSeed = 42

func buildWorld(spec *workloadSpec) *world {
	seed := int64(worldSeed)
	var topo *topology.Topology
	var db *policy.DB
	switch spec.World {
	case "daemon-churn":
		// The 26-AD BenchmarkDaemonChurn world with its mostly-permissive
		// policy: every class is offered everywhere, few restrictions.
		topo = topology.Generate(topology.Config{
			Seed: seed, Backbones: 2, RegionalsPerBackbone: 3,
			CampusesPerParent: 3, LateralProb: 0.25, BypassProb: 0.1,
			MultihomedProb: 0.15, HybridProb: 0.15,
		})
		db = policy.Generate(topo.Graph, policy.GenConfig{
			Seed: seed, QOSClasses: 2, UCIClasses: 2,
			QOSCoverage: 1.0, UCICoverage: 1.0, HybridSourceFraction: 0.9,
			SourceRestrictionProb: 0.2, SourceFraction: 0.7,
			DestRestrictionProb: 0.1, DestFraction: 0.7, AvoidProb: 0.1,
		})
	case "large":
		// The 340-AD largeTopo world of BenchmarkLargeSynthesis, with two
		// QOS and two UCI classes so every class of the key space is
		// routable somewhere (a one-class policy would answer three
		// quarters of the queries "no route" after one hop).
		topo = topology.Generate(topology.Config{
			Seed: seed, Backbones: 4, RegionalsPerBackbone: 4,
			MetrosPerRegional: 2, CampusesPerParent: 9,
			LateralProb: 0.05, BypassProb: 0.02, BackboneChords: 2,
		})
		db = policy.Generate(topo.Graph, policy.GenConfig{
			Seed: seed + 1, SourceRestrictionProb: 0.3, SourceFraction: 0.5,
			QOSClasses: 2, UCIClasses: 2,
		})
	default:
		panic("unknown world " + spec.World)
	}
	w := &world{seed: seed, g: topo.Graph, db: db}
	if spec.Warm {
		// Every stub pair × 2 QOS × 2 UCI at the hour the traffic uses.
		for q := policy.QOS(0); q < 2; q++ {
			for u := policy.UCI(0); u < 2; u++ {
				w.warm = append(w.warm, core.AllPairsRequests(w.g, true, q, u)...)
			}
		}
	}
	w.links = w.g.Links()
	for _, info := range w.g.ADs() {
		if info.Class == ad.Transit || info.Class == ad.Hybrid {
			w.transits = append(w.transits, info.ID)
		}
	}
	return w
}

// genPool draws the query population: on the churn world Zipf s=1.4 over
// stub pairs × 2 QOS × 2 UCI at one hour; on the large world uniform over
// stub pairs × 2 QOS × 2 UCI × 24 hours, a key space far beyond the
// server's cache.
func genPool(spec *workloadSpec, g *ad.Graph, seed int64) []policy.Request {
	cfg := trafficgen.Config{
		Seed: seed + 2, Requests: poolSize, StubsOnly: true,
		Model: "zipf", ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	}
	if spec.World == "large" {
		cfg.Model, cfg.HourSpread = "uniform", true
	}
	return trafficgen.Generate(g, cfg)
}

// replica is one serving stack: the primary of an HA group, a follower,
// or the whole server when the workload runs without HA.
type replica struct {
	g    *ad.Graph
	db   *policy.DB
	srv  *routeserver.Server
	dp   *routeserver.DataPlane
	be   *daemon.Backend
	node *ha.Node
}

// stack is the serving system under test, built only from the packages'
// public constructors: strategy → server → data plane → backend → daemon
// on a loopback TCP listener, plus HA followers when the workload has them.
type stack struct {
	*replica
	followers []*replica
	d         *daemon.Daemon
	addr      string
	served    chan error
	strat     *tracedStrategy // nil when untraced
	sock      *sockStats      // nil when untraced
}

// target is the load side's view of a serving stack: where it listens,
// and the harness state that follows the writes sent to it.
type target struct {
	addr    string
	mirror  *mirror
	writes  *writeGen
	handles handles
}

func newTarget(addr string, w *world, seed int64) *target {
	return &target{addr: addr, mirror: newMirror(w), writes: newWriteGen(w, seed)}
}

// dataPlaneConfig is the soft-state discipline the data-plane mix runs
// against: ticks and refreshes move handles through install, refresh and
// expiry.
var dataPlaneConfig = pgstate.Config{Kind: pgstate.Soft, TTL: 30 * sim.Second}

func newReplica(w *world, tr *tracer) (*replica, *tracedStrategy, error) {
	g, db := w.g.Clone(), w.db.Clone()
	var strat synthesis.Strategy = synthesis.NewOnDemand(g, db)
	var ts *tracedStrategy
	if tr != nil {
		ts = newTracedStrategy(strat, tr)
		strat = ts
	}
	// QueryLog matches cmd/routed: the plan engine replays it.
	srv := routeserver.New(strat, routeserver.Config{QueryLog: 1024})
	if ts != nil {
		ts.srv = srv
	}
	dp, err := routeserver.NewDataPlane(dataPlaneConfig)
	if err != nil {
		return nil, nil, err
	}
	return &replica{g: g, db: db, srv: srv, dp: dp, be: daemon.NewBackend(srv, dp, g, db)}, ts, nil
}

// buildStack sets the serving system up and warms it: everything setup_s
// times. tr non-nil installs the tracing wrappers.
func buildStack(spec *workloadSpec, w *world, tr *tracer) (*stack, error) {
	prim, ts, err := newReplica(w, tr)
	if err != nil {
		return nil, err
	}
	st := &stack{replica: prim, strat: ts, served: make(chan error, 1)}
	st.d = daemon.New(prim.be, daemon.Config{})
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.addr = ln.Addr().String()
	if tr != nil {
		st.sock = &sockStats{}
		ln = &tracedListener{Listener: ln, tr: tr, st: st.sock}
	}
	go func() { st.served <- st.d.Serve(ln) }()

	if spec.Replicas > 1 {
		if err := st.startGroup(w, spec.Replicas); err != nil {
			st.close()
			return nil, err
		}
	}
	if len(w.warm) > 0 {
		routeserver.ServePhase(prim.srv, w.warm, runtime.GOMAXPROCS(0))
	}
	if err := st.awaitFollowers(10 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// startGroup makes the stack the primary of an n-replica in-process HA
// group; followers run no daemon (all traffic goes to the primary).
func (st *stack) startGroup(w *world, n int) error {
	lns := make([]net.Listener, n)
	peers := make([]ha.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
		peers[i] = ha.Peer{ID: uint32(i + 1), HAAddr: ln.Addr().String()}
	}
	peers[0].ClientAddr = st.addr
	for i := 0; i < n; i++ {
		r := st.replica
		var d *daemon.Daemon
		if i == 0 {
			d = st.d
		} else {
			var err error
			if r, _, err = newReplica(w, nil); err != nil {
				return err
			}
			st.followers = append(st.followers, r)
		}
		node, err := ha.NewNode(ha.Config{ID: uint32(i + 1), Peers: peers, Listener: lns[i]}, r.be, d)
		if err != nil {
			return err
		}
		r.node = node
	}
	st.node.Start()
	for _, f := range st.followers {
		f.node.Start()
	}
	return nil
}

// followerLag is the largest number of backlog entries any follower has
// yet to apply (0 without followers).
func (st *stack) followerLag() uint64 {
	if st.node == nil {
		return 0
	}
	latest := st.node.BacklogLatest()
	lag := uint64(0)
	for _, f := range st.followers {
		if a := f.node.AppliedSeq(); a < latest && latest-a > lag {
			lag = latest - a
		}
	}
	return lag
}

// awaitFollowers blocks until every follower has applied the primary's
// backlog tail.
func (st *stack) awaitFollowers(limit time.Duration) error {
	if len(st.followers) == 0 {
		return nil
	}
	deadline := time.Now().Add(limit)
	for {
		latest := st.node.BacklogLatest()
		done := latest > 0
		for _, f := range st.followers {
			done = done && f.node.AppliedSeq() == latest
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers did not reach backlog seq %d within %v", latest, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close drains the daemon (in-flight replies flushed) and stops the group.
func (st *stack) close() {
	st.d.Drain()
	<-st.served
	if st.node != nil {
		st.node.Stop()
	}
	for _, f := range st.followers {
		f.node.Stop()
	}
}
