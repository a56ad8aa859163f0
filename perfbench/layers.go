package main

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/routeserver"
	"repro/internal/routeserver/daemon"
	"repro/internal/wire"
)

// snap is every layer counter the benchmark can read from outside the
// program, taken at one instant.
type snap struct {
	at      time.Time
	srv     routeserver.MetricsSnapshot
	dp      routeserver.DataPlaneMetrics
	route   [3]int64 // calls, found, ns
	fpNs    int64
	inv     [2]int64 // calls, ns
	sock    [6]int64 // reads, writes, readNs, writeNs, inFrames, outFrames
	cpu     time.Duration
	alloc   uint64
	numGC   uint32
	daemonM daemon.Metrics
}

func takeSnap(st *stack) snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{
		at: time.Now(), srv: st.srv.Snapshot(), dp: st.dp.Metrics(),
		cpu: cpuTime(), alloc: ms.TotalAlloc, numGC: ms.NumGC, daemonM: st.d.Metrics(),
	}
	if ts := st.strat; ts != nil {
		s.route = [3]int64{ts.routeCalls.Load(), ts.found.Load(), ts.routeNs.Load()}
		s.fpNs = ts.fpNs.Load()
		s.inv = [2]int64{ts.invCalls.Load(), ts.invNs.Load()}
	}
	if ss := st.sock; ss != nil {
		s.sock = [6]int64{ss.reads.Load(), ss.writes.Load(), ss.readNs.Load(), ss.writeNs.Load(), ss.inFrames.Load(), ss.outFrm.Load()}
	}
	return s
}

// traced is the --trace 1 run: the end-to-end procedure untraced, then the
// same schedule against a traced server, which snapshots its
// layer counters around the nominal and write phases and then runs the
// replays that isolate single layers. It reports per-layer metrics, the
// spans' self times and the tracing overhead (traced minus untraced, per
// end-to-end metric).
func (b *bench) traced() (result, error) {
	// Two passes and the replays fit in about the time of two plain runs.
	b.dur /= 2
	plain, srv, err := b.pass(false, 1)
	if err != nil {
		return result{}, err
	}
	b.stop(plain, srv)

	b.cur = cursor{} // replay the same queries
	e, srv, err := b.pass(true, 1)
	if err != nil {
		return result{}, err
	}

	in := &layerIn{Ops: len(e.nominal.ops), Cursor: b.cur.next}
	start := e.nominal.start.UnixNano()
	for i := range e.nominal.ops {
		id := e.nominal.base + uint64(i) + 1
		if r := &e.nominal.recs[i]; e.nominal.ops[i].kind == opQuery && r.done != 0 && id%traceSample == 0 {
			in.Samples = append(in.Samples, sample{ID: id, Due: start + r.due, Done: start + r.done,
				Key: routeserver.KeyOf(e.nominal.ops[i].req)})
		}
	}
	lm := srv.layers(in)
	b.stop(e, srv)
	if err := srv.b.replays(lm, in.Cursor); err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	for k, v := range lm {
		m[k] = metric{Value: v}
	}
	for _, k := range sortedKeys(e.metrics) {
		m["overhead."+k] = metric{Value: e.metrics[k].Value - plain.metrics[k].Value}
	}

	// loadgen: the generator itself, so a reader can tell the run measured
	// the program and not the harness.
	var late []float64
	for i := range e.nominal.recs {
		if r := &e.nominal.recs[i]; r.sent != 0 {
			late = append(late, float64(r.sent-r.due)/1e3)
		}
	}
	m["loadgen.late_p99_us"] = metric{Value: quantile(late, 0.99)}
	m["loadgen.backlog_end"] = metric{Value: float64(backlogAt(e.nominal.phase, e.nominal.dur))}

	// What the write replies reported: PG entries flushed by failures,
	// sends delivered, and the evictions plans predicted.
	var flushed, predicted, plans, sends, delivered float64
	for _, ph := range e.writes {
		for i, o := range ph.ops {
			r := &ph.recs[i]
			switch o.kind {
			case opFail, opCommit:
				flushed += float64(r.n)
			case opPlan:
				predicted += float64(r.n)
				plans++
			case opSend:
				sends++
				if r.code == wire.DataOK {
					delivered++
				}
			}
		}
	}
	m["dataplane.flushed"] = metric{Value: flushed}
	m["dataplane.send_delivered_frac"] = metric{Value: ratio(delivered, sends)}
	m["plan.evicted_predicted"] = metric{Value: ratio(predicted, plans)}

	return result{
		Correct:   plain.wrong == 0 && e.wrong == 0 && lm["replay.wrong"] == 0,
		Attempted: plain.attempted + e.attempted + int(lm["replay.attempted"]),
		Failed:    plain.failed + e.failed + int(lm["replay.failed"]),
		Metrics:   m,
	}, nil
}

// layers computes the traced stack's side of the per-layer report:
// counters from the snapshots taken around the nominal and write phases
// and the spans' self times. The replays follow on a fresh stack.
func (s *server) layers(in *layerIn) map[string]float64 {
	b, st, tr, lag := s.b, s.st, s.tr, &s.lag
	m := map[string]float64{}
	nom := s.snaps["nominal"]
	wph := s.snaps["nominal"]
	if !b.spec.ConcurrentWrites {
		wph = s.snaps["writes"]
	}
	d0, d1 := nom[0], nom[1]
	wall := d1.at.Sub(d0.at).Seconds()
	ops := float64(in.Ops)

	// socket: the daemon's side of the loopback connections.
	frames := float64(d1.sock[4] - d0.sock[4])
	m["socket.reads_per_req"] = ratio(float64(d1.sock[0]-d0.sock[0]), frames)
	m["socket.writes_per_req"] = ratio(float64(d1.sock[1]-d0.sock[1]), frames)
	m["socket.write_us_per_req"] = ratio(float64(d1.sock[3]-d0.sock[3])/1e3, frames)

	// wire: the codec on the frames this workload really carried.
	m["wire.decode_ns"], m["wire.encode_ns"], m["wire.allocs_per_frame"] = wireCost(tr.capIn, tr.capOut)

	// server and synth over the nominal phase.
	ds := func(f func(routeserver.MetricsSnapshot) uint64) float64 { return float64(f(d1.srv) - f(d0.srv)) }
	queries := ds(func(s routeserver.MetricsSnapshot) uint64 { return s.Queries })
	m["server.hit_rate"] = ratio(ds(func(s routeserver.MetricsSnapshot) uint64 { return s.Hits }), queries)
	m["server.coalesced_frac"] = ratio(ds(func(s routeserver.MetricsSnapshot) uint64 { return s.Coalesced }), queries)
	calls := float64(d1.route[0] - d0.route[0])
	busy := float64(d1.route[2]-d0.route[2]) / 1e9
	fpBusy := float64(d1.fpNs-d0.fpNs) / 1e9
	m["synth.route_calls"] = calls
	m["synth.route_busy_s"] = busy
	m["synth.footprint_busy_s"] = fpBusy
	m["synth.inflight_mean"] = ratio(busy+fpBusy, wall)
	m["synth.found_frac"] = ratio(float64(d1.route[1]-d0.route[1]), calls)
	cpu := (d1.cpu - d0.cpu).Seconds()
	// Route's share of the process's CPU time (the generator's included).
	m["synth.route_busy_share"] = ratio(busy, cpu)
	m["proc.cpu_us_per_op"] = ratio(cpu*1e6, ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(d1.alloc-d0.alloc), ops)
	m["proc.gc_cycles"] = float64(d1.numGC - d0.numGC)

	// The write-bearing phase: scoped invalidation, data plane, HA.
	w0, w1 := wph[0], wph[1]
	m["server.scoped_evicted"] = float64(w1.srv.ScopedEvicted - w0.srv.ScopedEvicted)
	m["server.scoped_retained"] = float64(w1.srv.ScopedRetained - w0.srv.ScopedRetained)
	m["synth.invalidate_scoped_us"] = ratio(float64(w1.inv[1]-w0.inv[1])/1e3, float64(w1.inv[0]-w0.inv[0]))
	m["dataplane.naks"] = float64(w1.dp.NAKs - w0.dp.NAKs)
	m["pgstate.expired"] = float64(w1.dp.State.Expirations - w0.dp.State.Expirations)
	m["pgstate.resident_peak"] = float64(w1.dp.MaxPeak)
	m["ha.follower_lag_max"] = float64(lag.max)
	m["ha.catchup_ms"] = lag.catchup.Seconds() * 1e3

	self := tr.selfTimes(in.Samples, filepath.Join(".bench_build", "trace", b.name+"-"+strconv.FormatInt(b.seed, 10)+".jsonl"))
	for _, layer := range []string{"loadgen", "socket", "daemon", "synth"} {
		m["trace.self_us."+layer] = self[layer]
	}
	m["trace.requests"] = self["requests"]

	ts := st.strat
	ts.mu.Lock()
	routeLat := append([]float64(nil), ts.routes...)
	ts.mu.Unlock()
	m["synth.route_p50_us"] = zeroIfNaN(quantile(routeLat, 0.5))
	m["synth.route_p99_us"] = zeroIfNaN(quantile(routeLat, 0.99))
	m["server.synth_per_key"] = ts.synthPerKey()
	end := takeSnap(st)
	m["server.capacity_evictions"] = float64(end.srv.Evictions)
	m["daemon.evicted_slow"] = float64(end.daemonM.Evicted)
	m["daemon.refused"] = float64(end.daemonM.Refused)
	return m
}

// replays runs, on a fresh traced stack, the replays that isolate single
// layers: the nominal query schedule in process, over net.Pipe through
// ServeConn and over TCP (adjacent differences are the layer between),
// serial misses, and the write schedule through direct Backend calls.
func (b *bench) replays(m map[string]float64, cursorAt int) error {
	st, _, err := b.setup(newTracer())
	if err != nil {
		return err
	}
	defer st.close()
	if b.world.pool == nil {
		b.world.pool = genPool(b.spec, b.world.g, b.seed)
	}
	b.cur = cursor{next: cursorAt}
	b.check = newChecker(b.spec.ConcurrentWrites)
	t := newTarget(st.addr, b.world, b.seed)
	var runs []*phaseRun

	gapDur := b.ns(0.06)
	inproc := newPhase("inproc", b.spec.Nominal, gapDur, queryOps(b.rng(40), b.world, &b.cur, b.spec.Nominal, gapDur))
	driveInproc(inproc, t, st.be)
	runs = append(runs, b.gate(t, inproc))
	pipe := newPhase("pipe", b.spec.Nominal, gapDur, queryOps(b.rng(41), b.world, &b.cur, b.spec.Nominal, gapDur))
	pipe.memo = b.check
	if err := driveConns(pipe, t, dialPipe(st.d), 5*time.Second); err != nil {
		return err
	}
	runs = append(runs, b.gate(t, pipe))
	runs = append(runs, b.run(t, newPhase("tcp", b.spec.Nominal, gapDur, queryOps(b.rng(42), b.world, &b.cur, b.spec.Nominal, gapDur))))
	inP50 := quantile(latencies(runs[0], isQuery), 0.5)
	pipeP50 := quantile(latencies(runs[1], isQuery), 0.5)
	tcpP50 := quantile(latencies(runs[2], isQuery), 0.5)
	m["daemon.pipe_gap_p50_us"] = pipeP50 - inP50
	m["daemon.tcp_gap_p50_us"] = tcpP50 - pipeP50
	m["daemon.tcp_gap_share"] = ratio(tcpP50-pipeP50, tcpP50)
	var serverLat []float64
	for i := range inproc.recs {
		if r := &inproc.recs[i]; r.done != 0 {
			serverLat = append(serverLat, float64(r.done-r.sent)/1e3)
		}
	}
	m["server.query_p50_us"] = quantile(serverLat, 0.5)
	m["server.query_p99_us"] = quantile(serverLat, 0.99)
	m["server.miss_overhead_p50_us"] = b.missOverhead(st)

	wdur := b.ns(probeShare / 2)
	wops := t.writes.ops(b.spec.CtlRate, b.spec.DataRate, wdur, b.spec.ConcurrentWrites)
	if b.spec.ConcurrentWrites {
		wops = append(wops, queryOps(b.rng(43), b.world, &b.cur, b.spec.Nominal, wdur)...)
	} else {
		wops = append(wops, t.writes.planOps(b.spec.PlanRate, wdur)...)
	}
	wp := newPhase("inproc-writes", 0, wdur, merge(wops))
	driveInproc(wp, t, st.be)
	runs = append(runs, b.gate(t, wp))
	call := func(sel func(opKind) bool) float64 {
		var xs []float64
		for i, o := range wp.ops {
			if r := &wp.recs[i]; sel(o.kind) && r.done != 0 {
				xs = append(xs, float64(r.done-r.sent)/1e3)
			}
		}
		return zeroIfNaN(quantile(xs, 0.5))
	}
	m["server.mutate_p50_us"] = call(func(k opKind) bool { return k == opFail || k == opRestore || k == opPolicy })
	m["dataplane.install_p50_us"] = call(func(k opKind) bool { return k == opInstall })
	m["dataplane.tick_p50_us"] = call(func(k opKind) bool { return k == opTick })
	m["plan.compute_p50_us"] = call(isPlan)

	for _, r := range runs {
		m["replay.attempted"] += float64(len(r.ops))
		m["replay.failed"] += float64(r.failed)
		m["replay.wrong"] += float64(r.wrong)
	}
	return nil
}

// missOverhead is the median in-process miss minus its own Route and
// Footprint time: lookup, coalescing, worker-slot and lock waits, insert.
// Misses run one at a time so each one's strategy time is its own.
func (b *bench) missOverhead(st *stack) float64 {
	var xs []float64
	ts := st.strat
	for i := 0; i < 200; i++ {
		// Zipf traffic asks at one hour, all of it warmed; any other hour
		// is a miss. Uniform traffic already spreads over the hours.
		req := b.cur.take(b.world.pool, 1)[0]
		req.Hour = uint8(13+i%23) % 24
		before := ts.routeNs.Load() + ts.fpNs.Load()
		calls := ts.routeCalls.Load()
		t0 := time.Now()
		st.be.Query(req)
		el := time.Since(t0)
		if ts.routeCalls.Load() == calls {
			continue // served from cache after all
		}
		xs = append(xs, float64(int64(el)-(ts.routeNs.Load()+ts.fpNs.Load()-before))/1e3)
	}
	return zeroIfNaN(quantile(xs, 0.5))
}

// wireCost times the wire codec on captured real traffic: decode is
// ReadMessage per request frame (what a session does), encode is
// WriteMessage per reply frame; allocations are per decoded plus encoded
// frame.
func wireCost(in, out []byte) (decNs, encNs, allocsPerFrame float64) {
	reqs := splitFrames(in)
	var replies []wire.Message
	for _, f := range splitFrames(out) {
		if m, err := wire.Unmarshal(f); err == nil {
			replies = append(replies, m)
		}
	}
	if len(reqs) == 0 || len(replies) == 0 {
		return 0, 0, 0
	}
	const rounds = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range reqs {
			if _, err := wire.ReadMessage(bytes.NewReader(f)); err != nil {
				warn("wire: decode of a captured frame failed: %v", err)
			}
		}
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(reqs))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range replies {
			_ = wire.WriteMessage(io.Discard, m) // io.Discard never fails
		}
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(replies))
	runtime.ReadMemStats(&ms1)
	// bytes.NewReader is one allocation of the harness's own per decode.
	allocs := float64(ms1.Mallocs-ms0.Mallocs) - float64(rounds*len(reqs))
	return decNs, encNs, allocs / float64(rounds*(len(reqs)+len(replies)))
}

// splitFrames cuts a captured byte stream into whole frames.
func splitFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 4 {
		n := 4 + (int(b[2])<<8 | int(b[3]))
		if n > len(b) {
			break
		}
		out = append(out, b[:n:n])
		b = b[n:]
	}
	return out
}

func dialTCP(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// dialPipe serves one end of an in-memory pipe with the daemon's own
// session code, skipping the kernel socket.
func dialPipe(d *daemon.Daemon) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		go d.ServeConn(s)
		return c, nil
	}
}

func zeroIfNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
