// Command routed fronts the route-server serving layer (§5.4): a concurrent
// query engine — sharded route cache, request coalescing, generation-based
// invalidation — wrapped around a route-synthesis strategy.
//
// Three modes:
//
//   - Line mode (default): reads queries from stdin, one per line
//     ("SRC DST [QOS UCI HOUR]"), answers each, and accepts the commands
//     "fail A B", "restore A B", "policy AD COST", "invalidate", "stats",
//     and "quit", plus the data-plane commands "install SRC DST [QOS UCI
//     HOUR]", "send HANDLE", "refresh", "tick SECONDS", "repair", and
//     "state". fail/restore/policy invalidate the route cache scoped to
//     the change — entries provably unaffected keep serving (still legal,
//     possibly no longer optimal after a restore or policy broadening);
//     "invalidate" forces the full generation bump that restores
//     optimality. Served routes are installed as per-PG handle state whose
//     lifecycle (-state hard|soft|capped, -state-ttl, -state-cap)
//     follows §6. "plan STEP[; STEP ...]" (steps "fail A B", "restore A
//     B", "policy AD COST") predicts a change batch's blast radius —
//     cache evictions, flow teardowns, pairs losing all routes — without
//     mutating anything, and "commit ID" applies a predicted plan unless
//     the server's mutation epoch moved since (staleness guard).
//
//   - Daemon mode (-listen addr and/or -unix path): serves the same
//     commands as a network daemon speaking the framed binary protocol of
//     internal/wire over TCP or a unix socket — per-connection sessions,
//     bounded write queues with slow-client eviction (-write-queue,
//     -write-timeout), and a connection limit (-max-conns). SIGINT,
//     SIGTERM, or a Drain protocol message triggers a graceful drain:
//     stop accepting, finish in-flight requests, flush replies, close.
//     With -replica-id and -peers (entries "ID@haAddr@clientAddr") the
//     daemon joins an HA replica group: the primary (-replica-of, default
//     lowest ID) streams its warm cache and control mutations to the
//     followers, followers redirect clients to the primary and promote
//     the lowest live ID when it goes silent.
//
//   - Load mode (-load): replays a synthetic workload (uniform / Zipf /
//     gravity) from -clients concurrent clients, optionally injecting
//     churn mid-run (-churn, or a -scenario file's event timeline), then
//     prints a serving report. -bench-json writes it machine-readably.
//     The target is the in-process backend, or with -connect addr a
//     running daemon over the wire, one connection per client, with
//     optional connection churn (-reconnect-every); a comma-separated
//     -connect list makes every client a failover client over the replica
//     group (NotPrimary redirects followed, dead replicas rotated past).
//     Both targets run through the same harness and print the same
//     report; the in-process one adds the server's cache, churn and
//     synthesis lines.
//
// The internet is either generated (-seed and the topology defaults shared
// with the experiment harness) or taken from a -scenario file, in which case
// the scenario's workload and events are used too.
//
// Usage:
//
//	routed [-strategy on-demand|precomputed|hybrid|pruned] [-load] \
//	       [-scenario file.json] [-seed N] [-requests N] [-model zipf] \
//	       [-clients N] [-churn] [-cache N] [-shards N] [-workers N] \
//	       [-qos N] [-uci N] [-bench-json file] \
//	       [-state hard|soft|capped] [-state-ttl dur] [-state-cap N] \
//	       [-cpuprofile file] [-memprofile file] \
//	       [-blockprofile file] [-mutexprofile file]
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"runtime"
	"runtime/pprof"

	"repro/internal/ad"
	"repro/internal/pgstate"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/routeserver/ha"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command over explicit arguments and streams, so tests
// can drive every mode end to end.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath   = fs.String("scenario", "", "scenario file supplying topology, policy, workload, and churn events")
		seed           = fs.Int64("seed", 42, "seed for the generated internet and workload")
		strategy       = fs.String("strategy", "on-demand", "synthesis strategy: on-demand, precomputed, hybrid, pruned")
		cacheCap       = fs.Int("cache", 0, "server route-cache capacity in entries (0 = default, <0 = unbounded)")
		shards         = fs.Int("shards", 0, "cache shard count, rounded up to a power of two (0 = default)")
		workers        = fs.Int("workers", 0, "max concurrent synthesis computations (0 = GOMAXPROCS)")
		load           = fs.Bool("load", false, "run the load generator instead of reading stdin")
		clients        = fs.Int("clients", 4, "concurrent client goroutines in load mode")
		requests       = fs.Int("requests", 2000, "workload length in load mode (ignored with -scenario)")
		model          = fs.String("model", "zipf", "workload model in load mode: uniform, zipf, gravity")
		zipfS          = fs.Float64("zipf", 1.4, "Zipf skew for -model zipf")
		qosClasses     = fs.Int("qos", 2, "QOS classes in the workload and precomputation")
		uciClasses     = fs.Int("uci", 2, "UCI classes in the workload and precomputation")
		churn          = fs.Bool("churn", false, "load mode: fail a lateral link at 40% and restore it at 70% of the run")
		benchJSON      = fs.String("bench-json", "", "load mode: also write the report as JSON to this file")
		listenAddr     = fs.String("listen", "", "serve the binary protocol on this TCP address (daemon mode)")
		unixPath       = fs.String("unix", "", "serve the binary protocol on this unix socket path (daemon mode)")
		connectAddr    = fs.String("connect", "", "load mode: drive a running daemon at this address instead of serving in-process (host:port, or a unix socket path containing '/')")
		maxConns       = fs.Int("max-conns", 0, "daemon mode: concurrent connection limit (0 = default 2048)")
		writeQueue     = fs.Int("write-queue", 0, "daemon mode: per-session reply queue length (0 = default 128)")
		writeTimeout   = fs.Duration("write-timeout", 0, "daemon mode: slow-client grace before eviction (0 = default 2s)")
		reconnectEvery = fs.Int("reconnect-every", 0, "load mode with -connect: each client redials after this many requests (0 = never)")
		replicaID      = fs.Uint("replica-id", 0, "daemon mode: this replica's ID in an HA group (0 = standalone)")
		peersFlag      = fs.String("peers", "", "daemon mode: HA group membership as ID@haAddr@clientAddr, comma-separated, this replica included")
		replicaOf      = fs.Uint("replica-of", 0, "daemon mode: initial primary's replica ID (0 = lowest peer ID)")
		stateKind      = fs.String("state", "hard", "PG handle lifecycle for installed routes: hard, soft, capped")
		stateTTL       = fs.Duration("state-ttl", 30*time.Second, "soft-state TTL in simulated time (-state soft)")
		stateCap       = fs.Int("state-cap", 64, "per-PG handle capacity (-state capped)")
		cpuProfile     = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile     = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		blockProfile   = fs.String("blockprofile", "", "write a pprof blocking profile to this file on exit")
		mutexProfile   = fs.String("mutexprofile", "", "write a pprof mutex-contention profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if err := validateFlags(flagCoherence{
		Load:           *load,
		Connect:        *connectAddr,
		ReconnectEvery: *reconnectEvery,
		Churn:          *churn,
		Listen:         *listenAddr,
		Unix:           *unixPath,
		ReplicaID:      *replicaID,
		Peers:          *peersFlag,
		ReplicaOf:      *replicaOf,
	}); err != nil {
		fmt.Fprintf(stderr, "routed: %v\n", err)
		fs.Usage()
		return 2
	}

	g, db, workload, muts, err := materialize(*scenarioPath, *seed, *requests, *model, *zipfS, *qosClasses, *uciClasses)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *connectAddr != "" && len(muts) > 0 {
		fmt.Fprintln(stderr, "routed: -scenario events cannot be sent over -connect (update-policy terms have no wire encoding); drop -connect to replay them in-process")
		fs.Usage()
		return 2
	}

	// The hybrid strategy precomputes the workload's first tenth.
	hot := workload
	if n := len(workload) / 10; n > 0 {
		hot = workload[:n]
	}
	strat, err := synthesis.NewStrategy(*strategy, g, db, hot, *qosClasses, *uciClasses)
	if err != nil {
		fmt.Fprintf(stderr, "routed: %v\n", err)
		fs.Usage()
		return 2
	}
	srv := routeserver.New(strat, routeserver.Config{
		Shards:   *shards,
		Capacity: *cacheCap,
		Workers:  *workers,
		// The query-log ring feeds "plan" its recorded-workload mode: a plan
		// replays the last queries against the shadow world to find pairs
		// that would lose all routes.
		QueryLog: 1024,
	})

	dp, err := routeserver.NewDataPlane(pgstate.Config{
		Kind:     pgstate.Kind(*stateKind),
		TTL:      sim.Time(stateTTL.Microseconds()),
		Capacity: *stateCap,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *blockProfile, *mutexProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer stopProfiles()

	be := daemon.NewBackend(srv, dp, g, db)

	if *load {
		// -connect changes only the target: the in-process backend, or a
		// running daemon (a comma-separated list: an HA replica set) over the
		// wire. The workload and the -churn timeline are regenerated locally
		// from the same seed, so client and daemon agree on the topology.
		dial := daemon.BackendDialer(be)
		ctl := func(op uint8, a, b ad.ID, cost uint32) (*wire.ControlReply, error) {
			return be.HandleControl(&wire.Control{Op: op, A: a, B: b, Cost: cost}), nil
		}
		local := srv
		if *connectAddr != "" {
			addrs := strings.Split(*connectAddr, ",")
			network := networkOf(addrs[0])
			fo := daemon.DialFailover(network, addrs, daemon.DefaultTimeout, *seed)
			defer fo.Close()
			dial, ctl, local = daemon.FailoverDialer(network, addrs), fo.Control, nil
		}
		events := scenarioEvents(srv, muts)
		if *churn {
			events = append(events, churnEvents(g, ctl)...)
		}
		rep := daemon.LoadRun(workload, daemon.LoadConfig{
			Dial:           dial,
			Clients:        *clients,
			ReconnectEvery: *reconnectEvery,
			Events:         events,
			Seed:           *seed,
		})
		printReport(stdout, local, rep)
		if *benchJSON != "" {
			if err := writeJSON(*benchJSON, local, rep); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if rep.Errors > 0 || rep.EventErr != nil {
			return 1
		}
		return 0
	}

	if *listenAddr != "" || *unixPath != "" {
		return runDaemon(stdout, stderr, be, *listenAddr, *unixPath, daemon.Config{
			MaxConns:     *maxConns,
			WriteQueue:   *writeQueue,
			WriteTimeout: *writeTimeout,
		}, uint32(*replicaID), uint32(*replicaOf), *peersFlag)
	}

	if err := serve(stdin, stdout, be); err != nil {
		return 1
	}
	return 0
}

// flagCoherence carries the mode-selecting flags into validateFlags, which
// is pure so tests can table-drive it.
type flagCoherence struct {
	Load           bool
	Connect        string
	ReconnectEvery int
	Churn          bool
	Listen         string
	Unix           string
	ReplicaID      uint
	Peers          string
	ReplicaOf      uint
}

// validateFlags rejects incoherent flag combinations up front with a usage
// error instead of letting a half-selected mode silently misbehave (e.g.
// -connect without -load would drop into line mode and never dial out).
func validateFlags(f flagCoherence) error {
	daemonMode := f.Listen != "" || f.Unix != ""
	if f.Connect != "" && !f.Load {
		return fmt.Errorf("-connect drives a running daemon from the load harness; add -load")
	}
	if f.ReconnectEvery != 0 && f.Connect == "" {
		return fmt.Errorf("-reconnect-every only applies to network load mode; add -connect")
	}
	if f.Churn && !f.Load {
		return fmt.Errorf("-churn injects events into a load run; add -load")
	}
	if f.Load && daemonMode {
		return fmt.Errorf("-load and -listen/-unix are exclusive: one process is either the load generator or the daemon")
	}
	if f.ReplicaID != 0 && !daemonMode {
		return fmt.Errorf("-replica-id joins an HA group in daemon mode; add -listen or -unix")
	}
	if f.ReplicaID != 0 && f.Peers == "" {
		return fmt.Errorf("-replica-id requires -peers (ID@haAddr@clientAddr,...)")
	}
	if f.Peers != "" && f.ReplicaID == 0 {
		return fmt.Errorf("-peers requires -replica-id to say which entry is this replica")
	}
	if f.ReplicaOf != 0 && f.ReplicaID == 0 {
		return fmt.Errorf("-replica-of names the initial primary of an HA group; add -replica-id and -peers")
	}
	return nil
}

// runDaemon serves the binary protocol on the requested listeners until a
// drain completes — triggered by SIGINT/SIGTERM or a Drain protocol
// message. In-flight requests finish and their replies flush before the
// connections close. With replicaID and peers set, the daemon joins an HA
// replica group: followers stream the primary's warm state and redirect
// clients, and a dead primary is failed over by heartbeat election.
func runDaemon(stdout, stderr io.Writer, be *daemon.Backend, tcpAddr, unixPath string, cfg daemon.Config, replicaID, replicaOf uint32, peersSpec string) int {
	d := daemon.New(be, cfg)
	if replicaID != 0 {
		peers, err := parsePeers(peersSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		node, err := ha.NewNode(ha.Config{
			ID: replicaID, Peers: peers, Primary: replicaOf,
		}, be, d)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		node.Start()
		defer node.Stop()
		role := "follower"
		if node.IsPrimary() {
			role = "primary"
		}
		fmt.Fprintf(stdout, "replica %d (%s) replicating on %v\n", replicaID, role, node.Addr())
	}
	var listeners []net.Listener
	if tcpAddr != "" {
		ln, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		listeners = append(listeners, ln)
	}
	if unixPath != "" {
		ln, err := net.Listen("unix", unixPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		listeners = append(listeners, ln)
	}
	for _, ln := range listeners {
		fmt.Fprintf(stdout, "listening on %v\n", ln.Addr())
		go func(ln net.Listener) {
			if err := d.Serve(ln); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}(ln)
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigC
		signal.Stop(sigC)
		d.Drain()
	}()

	<-d.Done()
	m := d.Metrics()
	fmt.Fprintf(stdout, "drained: %d sessions served, %d requests, %d refused, %d evicted\n",
		m.Accepted, m.Requests, m.Refused, m.Evicted)
	return 0
}

// parsePeers parses the -peers spec: comma-separated ID@haAddr@clientAddr.
func parsePeers(spec string) ([]ha.Peer, error) {
	if spec == "" {
		return nil, fmt.Errorf("-replica-id requires -peers (ID@haAddr@clientAddr,...)")
	}
	var peers []ha.Peer
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), "@")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad peer %q, want ID@haAddr@clientAddr", part)
		}
		id, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("bad peer ID %q", fields[0])
		}
		peers = append(peers, ha.Peer{ID: uint32(id), HAAddr: fields[1], ClientAddr: fields[2]})
	}
	return peers, nil
}

// networkOf picks the dial network for a -connect address: a path-looking
// address means a unix socket, anything else TCP.
func networkOf(addr string) string {
	if strings.ContainsRune(addr, '/') {
		return "unix"
	}
	return "tcp"
}

// startProfiles begins CPU profiling, enables block/mutex sampling when
// those profiles are requested, and arranges heap/block/mutex snapshots at
// stop time. Empty paths disable the corresponding profile; block and
// mutex sampling stay off unless asked for (they tax the hot path).
func startProfiles(cpuPath, memPath, blockPath, mutexPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	writeLookup := func(name, path string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize a settled heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		writeLookup("block", blockPath)
		writeLookup("mutex", mutexPath)
	}, nil
}

// materialize builds the internet and workload, either from a scenario file
// (which also supplies the event mutations scenarioEvents turns into the
// churn timeline) or generated from the seed.
func materialize(path string, seed int64, requests int, model string, zipfS float64, qos, uci int) (
	*ad.Graph, *policy.DB, []policy.Request, []scenario.Mutation, error) {
	if path == "" {
		topo := topology.Generate(topology.Config{
			Seed:                 seed,
			Backbones:            2,
			RegionalsPerBackbone: 3,
			CampusesPerParent:    3,
			LateralProb:          0.25,
			BypassProb:           0.10,
			MultihomedProb:       0.15,
			HybridProb:           0.15,
		})
		db := policy.Generate(topo.Graph, policy.GenConfig{
			Seed:                  seed,
			SourceRestrictionProb: 0.6,
			SourceFraction:        0.5,
			DestRestrictionProb:   0.2,
			DestFraction:          0.7,
			AvoidProb:             0.2,
		})
		workload := trafficgen.Generate(topo.Graph, trafficgen.Config{
			Seed:       seed + 2,
			Requests:   requests,
			StubsOnly:  true,
			Model:      model,
			ZipfS:      zipfS,
			QOSClasses: qos,
			UCIClasses: uci,
		})
		return topo.Graph, db, workload, nil, nil
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, db, workload, err := sc.Materialize()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	muts, err := sc.Mutations(g, db)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return g, db, workload, muts, nil
}

// scenarioEvents spreads a scenario's mutations evenly through the run,
// each applied under srv.MutateScoped. They stay in-process: a scenario's
// update-policy terms have no wire encoding.
func scenarioEvents(srv *routeserver.Server, muts []scenario.Mutation) []daemon.LoadEvent {
	events := make([]daemon.LoadEvent, len(muts))
	for i, m := range muts {
		m := m
		events[i] = daemon.LoadEvent{
			After: float64(i+1) / float64(len(muts)+1),
			Label: m.Label,
			Fire:  func() error { srv.MutateScoped(m.Change, m.Apply); return nil },
		}
	}
	return events
}

// controlFunc issues one control op against the load target: the
// backend's HandleControl in process, a failover client's Control over the
// wire.
type controlFunc func(op uint8, a, b ad.ID, cost uint32) (*wire.ControlReply, error)

// churnEvents is the built-in -churn timeline: the first lateral link (or,
// failing that, the first link) goes down at 40% of the run and comes back
// at 70%, both through ctl.
func churnEvents(g *ad.Graph, ctl controlFunc) []daemon.LoadEvent {
	links := g.Links()
	if len(links) == 0 {
		return nil
	}
	target := links[0]
	for _, l := range links {
		if l.Class == ad.Lateral {
			target = l
			break
		}
	}
	fire := func(op uint8) func() error {
		return func() error {
			rep, err := ctl(op, target.A, target.B, 0)
			if err == nil && !rep.OK() {
				err = errors.New(rep.Err)
			}
			return err
		}
	}
	return []daemon.LoadEvent{
		{After: 0.4, Label: fmt.Sprintf("fail %v-%v", target.A, target.B), Fire: fire(wire.CtlFail)},
		{After: 0.7, Label: fmt.Sprintf("restore %v-%v", target.A, target.B), Fire: fire(wire.CtlRestore)},
	}
}

// printReport renders a load-mode report. The first lines are the same
// for every target; srv, the in-process server (nil over the wire), adds
// the strategy, cache, churn and synthesis lines.
func printReport(w io.Writer, srv *routeserver.Server, rep daemon.LoadReport) {
	fmt.Fprintf(w, "requests    %d (%d served, %d no-route, %d errors)\n",
		rep.Requests, rep.Served, rep.NoRoute, rep.Errors)
	fmt.Fprintf(w, "elapsed     %v (%.0f qps)\n", rep.Elapsed, rep.QPS)
	fmt.Fprintf(w, "conns       %d reconnects, %d failed dials, %d redirects\n",
		rep.Reconnects, rep.ReconnectFailures, rep.Redirects)
	fmt.Fprintf(w, "stall       %v max gap between replies\n", rep.MaxStall)
	fmt.Fprintf(w, "latency     p50 %v  p95 %v  p99 %v (client-measured)\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99)
	if rep.EventErr != nil {
		fmt.Fprintf(w, "events      timeline stopped: %v\n", rep.EventErr)
	}
	if srv == nil {
		return
	}
	m := srv.Snapshot()
	fmt.Fprintf(w, "strategy    %s\n", srv.StrategyName())
	fmt.Fprintf(w, "cache       %d hits, %d coalesced, %d misses (%.1f%% served without synthesis)\n",
		m.Hits, m.Coalesced, m.Misses, 100*m.HitRate())
	fmt.Fprintf(w, "churn       %d full invalidations, %d scoped (%d evicted, %d retained), %d evictions\n",
		m.Invalidations, m.ScopedMutations, m.ScopedEvicted, m.ScopedRetained, m.Evictions)
	st := srv.StrategyStats()
	fmt.Fprintf(w, "synthesis   %d precompute + %d on-demand expansions, %d entries cached by the strategy\n",
		st.PrecomputeExpansions, st.OnDemandExpansions, st.CacheEntries)
}

// writeJSON writes the machine-readable form of the report: the shared
// keys, plus the server's counters when srv (the in-process server) is
// non-nil.
func writeJSON(path string, srv *routeserver.Server, rep daemon.LoadReport) error {
	out := map[string]any{
		"requests":           rep.Requests,
		"served":             rep.Served,
		"no_route":           rep.NoRoute,
		"errors":             rep.Errors,
		"reconnects":         rep.Reconnects,
		"reconnect_failures": rep.ReconnectFailures,
		"redirects":          rep.Redirects,
		"max_stall_ns":       rep.MaxStall.Nanoseconds(),
		"elapsed_ns":         rep.Elapsed.Nanoseconds(),
		"qps":                rep.QPS,
		"latency_p50":        rep.Latency.P50.Nanoseconds(),
		"latency_p95":        rep.Latency.P95.Nanoseconds(),
		"latency_p99":        rep.Latency.P99.Nanoseconds(),
	}
	if srv != nil {
		m := srv.Snapshot()
		out["strategy"] = srv.StrategyName()
		out["hits"] = m.Hits
		out["coalesced"] = m.Coalesced
		out["misses"] = m.Misses
		out["hit_rate"] = m.HitRate()
		out["invalidations"] = m.Invalidations
		out["scoped_mutations"] = m.ScopedMutations
		out["scoped_evicted"] = m.ScopedEvicted
		out["scoped_retained"] = m.ScopedRetained
		out["evictions"] = m.Evictions
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// maxLineBytes bounds one line-mode input line (bufio.Scanner's 64KB
// default is too small for scripted sessions with long comment or batch
// lines).
const maxLineBytes = 1 << 20

// serve runs line mode: one query or command per stdin line. It is
// factored over io.Reader/io.Writer so tests can script a full session.
// A read error — including a line over maxLineBytes — is surfaced on out
// and returned; it must not masquerade as a clean quit.
func serve(in io.Reader, out io.Writer, be *daemon.Backend) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		if !serveLine(sc.Text(), out, be) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(out, "read error: %v\n", err)
		return err
	}
	return nil
}

// serveLine executes one line-mode command against the shared backend —
// the same dispatch the binary protocol uses — reporting whether the
// session continues. The text in and out is the only thing this adapter
// owns.
func serveLine(line string, out io.Writer, be *daemon.Backend) bool {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return true
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case "quit", "exit":
		return false
	case "stats":
		st := be.Stats()
		fmt.Fprintf(out, "gen %d: %d queries, %d hits, %d coalesced, %d misses, %d failures, %d cached\n",
			st.Gen, st.Queries, st.Hits, st.Coalesced, st.Misses, st.Failures, st.Cached)
		// Connection counters exist only when a daemon fronts this backend;
		// line mode stays short so session parity with the wire rendering
		// holds.
		if st.ConnsKnown {
			fmt.Fprintf(out, "conns: %d accepted, %d evicted-slow, %d refused\n",
				st.Accepted, st.EvictedSlow, st.Refused)
		}
	case "fail", "restore", "policy", "invalidate":
		// Scoped invalidation for fail/restore/policy; "invalidate" is the
		// full generation bump that restores optimality after scoped
		// retentions. Same execution path as the wire Control message.
		q, err := parseControl(fields)
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		fmt.Fprint(out, renderControlReply(q.Op, be.HandleControl(q)))
	case "install":
		// install SRC DST [QOS UCI HOUR]: serve a route and install it as
		// PG handle state so data can flow over it.
		req, err := parseQuery(fields[1:])
		if err != nil {
			fmt.Fprintln(out, "usage: install SRC DST [QOS UCI HOUR]")
			return true
		}
		h, path, found := be.Install(req)
		if !found {
			fmt.Fprintf(out, "no-route %v\n", req)
			return true
		}
		fmt.Fprintf(out, "handle %d via %v\n", h, path)
	case "send":
		// send HANDLE: forward one data packet over installed state.
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: send HANDLE")
			return true
		}
		h, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "bad handle %q\n", fields[1])
			return true
		}
		switch r := be.Send(h); {
		case r.Delivered:
			fmt.Fprintln(out, "delivered")
		case r.MissAt != 0:
			fmt.Fprintf(out, "no-state at %v (flow queued for repair)\n", r.MissAt)
		default:
			fmt.Fprintf(out, "unknown handle %d\n", h)
		}
	case "refresh":
		refreshed, failed := be.Refresh()
		fmt.Fprintf(out, "refreshed %d flows, %d lost state\n", refreshed, failed)
	case "tick":
		// tick SECONDS: advance the data plane's soft-state clock.
		secs := int64(1)
		if len(fields) > 1 {
			v, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil || v <= 0 {
				fmt.Fprintln(out, "usage: tick SECONDS")
				return true
			}
			secs = v
		}
		now, expired := be.Tick(secs)
		fmt.Fprintf(out, "t=%ds, %d entries expired\n", now, expired)
	case "repair":
		attempted, repaired := be.Repair()
		fmt.Fprintf(out, "repaired %d/%d flows\n", repaired, attempted)
	case "state":
		fmt.Fprintln(out, be.State())
	case "plan":
		// plan STEP[; STEP ...]: predict the batch's blast radius without
		// applying it. Same execution path as the wire Plan message.
		steps, err := parsePlanSteps(strings.TrimSpace(strings.TrimPrefix(line, "plan")))
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		for _, l := range daemon.RenderPlanReply(be.HandlePlan(&wire.Plan{Steps: steps})) {
			fmt.Fprintln(out, l)
		}
	case "commit":
		// commit ID: apply a previously planned batch; refused if the
		// mutation epoch moved since the plan.
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: commit PLAN_ID")
			return true
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "bad plan id %q\n", fields[1])
			return true
		}
		for _, l := range daemon.RenderPlanReply(be.HandlePlan(&wire.Plan{Commit: true, PlanID: id})) {
			fmt.Fprintln(out, l)
		}
	default:
		req, err := parseQuery(fields)
		if err != nil {
			fmt.Fprintln(out, err)
			return true
		}
		res := be.Query(req)
		if res.Found {
			fmt.Fprintf(out, "%v\n", res.Path)
		} else {
			fmt.Fprintf(out, "no-route %v\n", req)
		}
	}
	return true
}

// renderControlReply renders a control reply as line-mode text.
func renderControlReply(op uint8, rep *wire.ControlReply) string {
	switch {
	case !rep.OK():
		return rep.Err + "\n"
	case op == wire.CtlInvalidate:
		return fmt.Sprintf("ok (gen %d)\n", rep.Gen)
	}
	var flushed string
	// Failure-driven repair: a fail flushes installed handle state that
	// crossed the dead link and queues its flows for "repair".
	if rep.Flushed > 0 {
		flushed = fmt.Sprintf("flushed %d handle entries\n", rep.Flushed)
	}
	return flushed + fmt.Sprintf("ok (evicted %d, retained %d)\n", rep.Evicted, rep.Retained)
}

// parseControl parses a control command: "fail A B", "restore A B",
// "policy AD COST" (replace the AD's terms with one open term), or
// "invalidate".
func parseControl(fields []string) (*wire.Control, error) {
	switch fields[0] {
	case "invalidate":
		return &wire.Control{Op: wire.CtlInvalidate}, nil
	case "policy":
		a, c, ok := twoIDs(fields[1:])
		if !ok {
			return nil, errors.New("usage: policy AD COST")
		}
		return &wire.Control{Op: wire.CtlPolicy, A: a, Cost: uint32(c)}, nil
	}
	a, b, ok := twoIDs(fields[1:])
	if !ok {
		return nil, fmt.Errorf("usage: %s A B", fields[0])
	}
	op := wire.CtlFail
	if fields[0] == "restore" {
		op = wire.CtlRestore
	}
	return &wire.Control{Op: op, A: a, B: b}, nil
}

// parsePlanSteps parses the "plan" argument: semicolon-separated steps,
// each "fail A B", "restore A B", or "policy AD COST".
func parsePlanSteps(spec string) ([]wire.PlanStep, error) {
	usage := fmt.Errorf("usage: plan STEP[; STEP ...] with STEP one of \"fail A B\", \"restore A B\", \"policy AD COST\"")
	if spec == "" {
		return nil, usage
	}
	var steps []wire.PlanStep
	for _, part := range strings.Split(spec, ";") {
		f := strings.Fields(part)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "fail", "restore", "policy":
			c, err := parseControl(f)
			if err != nil {
				return nil, usage
			}
			steps = append(steps, wire.PlanStep{Op: c.Op, A: c.A, B: c.B, Cost: c.Cost})
		default:
			return nil, fmt.Errorf("unknown plan step %q: %v", f[0], usage)
		}
	}
	if len(steps) == 0 {
		return nil, usage
	}
	return steps, nil
}

// parseQuery parses "SRC DST [QOS UCI HOUR]".
func parseQuery(fields []string) (policy.Request, error) {
	var req policy.Request
	if len(fields) < 2 || len(fields) > 5 {
		return req, fmt.Errorf("query is SRC DST [QOS UCI HOUR]; commands are fail, restore, policy, invalidate, plan, commit, stats, install, send, refresh, tick, repair, state, quit")
	}
	vals := make([]uint64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return req, fmt.Errorf("bad number %q", f)
		}
		vals[i] = v
	}
	req.Src, req.Dst = ad.ID(vals[0]), ad.ID(vals[1])
	if len(vals) > 2 {
		req.QOS = policy.QOS(vals[2])
	}
	if len(vals) > 3 {
		req.UCI = policy.UCI(vals[3])
	}
	if len(vals) > 4 {
		req.Hour = uint8(vals[4])
	}
	return req, nil
}

// twoIDs parses two numeric arguments.
func twoIDs(fields []string) (ad.ID, ad.ID, bool) {
	if len(fields) != 2 {
		return 0, 0, false
	}
	a, errA := strconv.ParseUint(fields[0], 10, 32)
	b, errB := strconv.ParseUint(fields[1], 10, 32)
	if errA != nil || errB != nil {
		return 0, 0, false
	}
	return ad.ID(a), ad.ID(b), true
}
