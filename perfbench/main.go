// Command perfbench is the serving-path benchmark. For one workload and
// seed it builds the route-serving stack from the packages' public
// constructors, drives it with open-loop load over loopback TCP, checks
// every answer against the oracle, and prints every metric by name and
// unit; the last line of its output is one JSON object.
//
//	perfbench --workload hot-zipf --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// schedule untraced and then traced, reports per-layer metrics measured
// around the calls into each layer (plus the tracing overhead on every
// end-to-end metric), and writes the request spans under .bench_build/.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed spec.json
var specJSON []byte

// workloadSpec is one workload's fixed parameters; spec.json records them
// with the measured curve they were chosen from.
type workloadSpec struct {
	World    string `json:"world"`
	Warm     bool   `json:"warm"`
	Replicas int    `json:"replicas"`
	// ConcurrentWrites runs the write stream beside every query phase;
	// otherwise writes run in a probe after the query phases.
	ConcurrentWrites bool    `json:"concurrent_writes"`
	LimitUS          float64 `json:"latency_limit_us"`
	Nominal          float64 `json:"nominal_qps"`
	High             float64 `json:"high_qps"`
	CtlRate          float64 `json:"ctl_per_s"`
	DataRate         float64 `json:"data_per_s"`
	PlanRate         float64 `json:"plan_per_s"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads map[string]*workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec             `json:"end_to_end"`
	PerLayer  []metricSpec             `json:"per_layer"`
	// Reported end-to-end metrics are printed with the others but left out
	// of the result line: their run-to-run spread is beyond any bound.
	Reported []metricSpec `json:"reported"`
}

func warn(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "workload name (see spec.json)")
	seed := flag.Int64("seed", 1, "input seed: traffic, schedules and write order")
	seconds := flag.Int("seconds", 40, "measured seconds per run (setup excluded)")
	trace := flag.Int("trace", 0, "1 = per-layer run")
	curve := flag.String("curve", "", "comma-separated rates: print the latency curve (stderr) instead of a result")
	vary := flag.String("vary", "query", "with --curve, the rate the list sets: query, ctl, data or plan")
	flag.Parse()

	var spec benchSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		warn("spec.json: %v", err)
		os.Exit(2)
	}
	ws, ok := spec.Workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		warn("usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	b := &bench{spec: ws, name: *workload, seed: *seed, dur: float64(*seconds)}
	b.world = buildWorld(ws)
	b.world.pool = genPool(ws, b.world.g, *seed)
	var out result
	var err error
	switch {
	case *curve != "":
		err = b.curve(*curve, *vary)
	case *trace == 0:
		out, err = b.endToEnd()
	default:
		out, err = b.traced()
	}
	if err != nil {
		warn("%s: %v", *workload, err)
		os.Exit(1)
	}
	if *curve != "" {
		return
	}
	want, also := spec.EndToEnd, spec.Reported
	if *trace == 1 {
		want, also = spec.PerLayer, nil
	}
	if err := out.print(want, also); err != nil {
		warn("%v", err)
		os.Exit(1)
	}
}

// bench is one invocation: a workload on a generated world. The load side
// and the server side each hold one.
type bench struct {
	spec  *workloadSpec
	name  string
	seed  int64
	dur   float64 // seconds of measured phases
	world *world
	cur   cursor
	check *checker
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print lists every metric by name and unit, then the JSON result line,
// which carries the want metrics; the also metrics are listed only. A
// metric the catalogue names but the run did not produce is a bug.
func (r result) print(want, also []metricSpec) error {
	got := r.Metrics
	r.Metrics = make(map[string]metric, len(want))
	for i, m := range append(append([]metricSpec(nil), want...), also...) {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
		v.Unit = m.Unit
		note := ""
		if i < len(want) {
			r.Metrics[m.Name] = v
		} else {
			note = " (listed only)"
		}
		fmt.Printf("%-34s %14.4f %s%s\n", m.Name, v.Value, m.Unit, note)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (b *bench) ns(frac float64) int64 { return int64(frac * b.dur * 1e9) }

// rng derives an independent, reproducible stream per schedule.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + stream))
}

// setup generates the world and builds and warms the stack on it, timing
// both (the server side's bench).
func (b *bench) setup(tr *tracer) (*stack, float64, error) {
	t0 := time.Now()
	w := buildWorld(b.spec)
	st, err := buildStack(b.spec, w, tr)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	if b.world == nil {
		b.world = w
	}
	return st, secs, nil
}

// Set-up time is the median of many set-ups spread over the run:
// setupRuns before the first phase (the last one serves the run) and
// setupSamples more after each query round, built and stopped while the
// served stack idles. One set-up takes tens of milliseconds, so a slow
// stretch of a shared machine would otherwise decide the figure.
const (
	setupRuns    = 5
	setupSamples = 2
)

// phaseRun is one measured phase after the correctness gate.
type phaseRun struct {
	*phase
	failed, wrong int
}

// run drives a phase over TCP, then checks every answer.
func (b *bench) run(t *target, p *phase) *phaseRun {
	p.memo = b.check
	if err := driveConns(p, t, dialTCP(t.addr), 5*time.Second); err != nil {
		warn("%s: dial: %v", p.name, err)
	}
	return b.gate(t, p)
}

// gate applies the correctness gate to a finished phase and logs its
// summary on stderr (the measured curve the workload rates come from).
func (b *bench) gate(t *target, p *phase) *phaseRun {
	f, w := b.check.check(p, t.mirror)
	ph := &phaseRun{phase: p, failed: f, wrong: w}
	var late []float64
	for i := range p.recs {
		if r := &p.recs[i]; r.sent != 0 {
			late = append(late, float64(r.sent-r.due)/1e3)
		}
	}
	lat := latencies(ph, isQuery)
	fmt.Fprintf(os.Stderr, "%-14s rate %9.0f ops %7d failed %d wrong %d p50 %9.1fus p99 %9.1fus late p50 %7.1fus p99 %7.1fus backlog %d\n",
		p.name, p.rate, len(p.ops), f, w, quantile(lat, 0.5), quantile(lat, 0.99), quantile(late, 0.5), quantile(late, 0.99), backlogAt(p, p.dur))
	time.Sleep(20 * time.Millisecond) // let the daemon go idle between phases
	return ph
}

// queryPhase schedules queries at rate, plus the write stream when the
// workload runs writes beside its queries.
func (b *bench) queryPhase(t *target, name string, stream int64, rate float64, dur int64) *phase {
	ops := queryOps(b.rng(stream), b.world, &b.cur, rate, dur)
	if b.spec.ConcurrentWrites {
		return newPhase(name, rate, dur, merge(ops, t.writes.ops(b.spec.CtlRate, b.spec.DataRate, dur, true)))
	}
	return newPhase(name, rate, dur, ops)
}

// e2e holds one pass of the end-to-end procedure. Phases are reduced to
// their window statistics once checked; only the ones the traced run reads
// again (the first nominal slice and the write phases) are kept.
type e2e struct {
	nominal                  *phaseRun
	writes                   []*phaseRun
	metrics                  map[string]metric
	attempted, failed, wrong int
	liveMB                   float64 // heap in use at run end, stack live
}

func (e *e2e) count(ph *phaseRun) {
	e.attempted += len(ph.ops)
	e.failed += ph.failed
	e.wrong += ph.wrong
}

// Phase lengths as shares of --seconds: the nominal rate, the high rate,
// a 12-step search for the highest rate meeting the service level, and,
// for workloads without concurrent writes, a write probe (control and data
// ops, then plan→commit pairs, so a slow plan never queues the other
// control ops measured beside it). The query phases run in rounds, each a
// slice of the nominal and high phases and a quarter of the search, so an
// episode of slow machine lasting a few seconds lands in one round and the
// median over windows from all rounds discounts it; the probe follows in
// as many slices. Workloads with concurrent writes have no probe: its
// share goes to their nominal phase, where their writes are measured.
const (
	rounds       = 4
	nominalShare = 0.20
	highShare    = 0.15
	ladderSteps  = 12
	ladderShare  = 0.40
	probeShare   = 0.15
	plansShare   = 0.10
)

// nominalSlice is one round's slice of the nominal phase, in ns.
func (b *bench) nominalSlice() int64 {
	share := nominalShare
	if b.spec.ConcurrentWrites {
		share += probeShare + plansShare
	}
	return b.ns(share / rounds)
}

func isQuery(k opKind) bool { return k == opQuery }
func isCtl(k opKind) bool   { return k == opFail || k == opRestore || k == opPolicy || k == opCommit }
func isData(k opKind) bool  { return k == opInstall || k == opSend || k == opTick }
func isPlan(k opKind) bool  { return k == opPlan }

// windows collects per-window latency quantiles (µs) over many phases.
// Each phase is cut into equal time windows of at least per selected ops
// each, but no more than maxWindows of them (and at least one); a metric
// is the median over all windows of the window's quantile. At the
// nominal rate every phase slice hits the cap, so query_p99_us is the
// median of 60 window p99s, each over a fifteenth of a round's slice.
type windows struct {
	per      int
	p50, p99 []float64
	all      []float64 // every latency, for the pooled quantiles
}

const maxWindows = 15

func (w *windows) add(ph *phaseRun, sel func(opKind) bool) {
	var idx []int
	for i := range ph.ops {
		if sel(ph.ops[i].kind) {
			idx = append(idx, i)
		}
	}
	n := max(1, min(maxWindows, len(idx)/w.per))
	win := make([][]float64, n)
	for _, i := range idx {
		lat := math.Inf(1)
		if r := &ph.recs[i]; !r.failed {
			lat = float64(r.done-r.due) / 1e3
		}
		k := min(int(ph.ops[i].at*int64(n)/max(ph.dur, 1)), n-1)
		win[k] = append(win[k], lat)
		w.all = append(w.all, lat)
	}
	for _, x := range win {
		if len(x) > 0 {
			w.p50 = append(w.p50, quantile(x, 0.5))
			w.p99 = append(w.p99, quantile(x, 0.99))
		}
	}
}

// measure runs the end-to-end procedure against the server side. With
// traced, the server snapshots its layer counters around the first round's
// nominal and write phases, and those phases' records are kept for the
// report.
func (b *bench) measure(t *target, srv *server, traced bool) (*e2e, error) {
	b.check = newChecker(b.spec.ConcurrentWrites)
	e := &e2e{metrics: map[string]metric{}}
	run := func(p *phase, hook bool) *phaseRun {
		if hook {
			srv.snap(p.name, 0)
		}
		ph := b.run(t, p)
		if hook {
			srv.snap(p.name, 1)
		}
		e.count(ph)
		return ph
	}
	nom, high := &windows{per: 2000}, &windows{per: 2000}
	ctl, data, plan := &windows{per: 50}, &windows{per: 50}, &windows{per: 50}
	write := func(ph *phaseRun) {
		ctl.add(ph, isCtl)
		data.add(ph, isData)
		plan.add(ph, isPlan)
		if traced {
			e.writes = append(e.writes, ph)
		}
	}
	// qps_at_slo: step from the high rate by 1.25x while every step so far
	// met the service level (or shrink while none did); from the first
	// reversal on, step up after a pass and down after a miss by 1.25^(1/k)
	// at the k-th step since — a stochastic approximation of the rate at
	// which the service level starts to fail, which, unlike bisection,
	// walks back a step spoiled by a stall of the machine. The result is
	// the geometric mean of the rates realized from the reversal on.
	var lastPass, lastFail, logSum float64
	r, factor, tracked := b.spec.High, 1.25, 0
	for round := 0; round < rounds; round++ {
		hook := traced && round == 0
		stream := int64(100 * round)
		ph := run(b.queryPhase(t, "nominal", stream+1, b.spec.Nominal, b.nominalSlice()), hook)
		nom.add(ph, isQuery)
		if hook {
			e.nominal = ph
		}
		if b.spec.ConcurrentWrites {
			write(ph)
		}
		high.add(run(b.queryPhase(t, "high", stream+2, b.spec.High, b.ns(highShare/rounds)), false), isQuery)
		for s := 0; s < ladderSteps/rounds; s++ {
			step := run(b.queryPhase(t, "ladder", stream+10+int64(s), r, b.ns(ladderShare/ladderSteps)), false)
			realized := float64(countQueries(step.ops)) / (float64(step.dur) / 1e9)
			pass := b.meets(step)
			if tracked > 0 || (pass && lastFail != 0) || (!pass && lastPass != 0) {
				tracked++
				logSum += math.Log(realized)
				factor = math.Pow(1.25, 1/float64(tracked+1))
			}
			if pass {
				lastPass, r = realized, r*factor
			} else {
				lastFail, r = realized, r/factor
			}
		}
		if err := srv.sampleSetup(setupSamples); err != nil {
			return nil, err
		}
	}
	// The write probe comes after every query phase: its policy changes
	// open transits for good, which would slow the searches of any query
	// phase after it. It keeps light query traffic flowing (a tenth of
	// nominal, not reported) so write latencies are those of a serving
	// daemon, not of an idle machine waking up, without queueing behind
	// load.
	for round := 0; round < rounds && !b.spec.ConcurrentWrites; round++ {
		stream := int64(100 * round)
		wdur, pdur, bg := b.ns(probeShare/rounds), b.ns(plansShare/rounds), b.spec.Nominal/10
		write(run(newPhase("writes", bg, wdur, merge(
			queryOps(b.rng(stream+3), b.world, &b.cur, bg, wdur),
			t.writes.ops(b.spec.CtlRate, b.spec.DataRate, wdur, false))), traced && round == 0))
		write(run(newPhase("plans", bg, pdur, merge(
			queryOps(b.rng(stream+4), b.world, &b.cur, bg, pdur),
			t.writes.planOps(b.spec.PlanRate, pdur))), false))
	}
	qps := math.Exp(logSum / float64(max(tracked, 1)))
	switch {
	case lastFail == 0:
		qps = lastPass // every step met the service level
	case lastPass == 0:
		qps = lastFail // none did: the lowest rate tried bounds it from above
	}
	e.metrics["qps_at_slo"] = metric{Value: qps}
	e.metrics["query_p50_us"] = metric{Value: median(nom.p50)}
	e.metrics["query_p99_us"] = metric{Value: median(nom.p99)}
	e.metrics["query_p99_us.high"] = metric{Value: median(high.p99)}
	e.metrics["ctl_p50_us"] = metric{Value: median(ctl.p50)}
	e.metrics["ctl_p99_us"] = metric{Value: quantile(ctl.all, 0.99)}
	e.metrics["dataop_p50_us"] = metric{Value: median(data.p50)}
	e.metrics["dataop_p99_us"] = metric{Value: quantile(data.all, 0.99)}
	e.metrics["plan_p50_us"] = metric{Value: quantile(plan.all, 0.5)}
	fmt.Fprintf(os.Stderr, "setup times %.4f\n", srv.setups)
	e.metrics["setup_s"] = metric{Value: median(srv.setups)}
	return e, nil
}

func countQueries(ops []op) int {
	n := 0
	for i := range ops {
		if ops[i].kind == opQuery {
			n++
		}
	}
	return n
}

// backlogAllowance is how much the outstanding count may rise over a step,
// in arrivals, before the backlog counts as growing: above the wobble of a
// system keeping up (write stalls included), far below what a queue that
// is losing ground gathers in a fraction of a step.
const backlogAllowance = 2 * time.Millisecond

// meets reports whether a ladder step met the service level: no failures,
// query p99 (failures count as infinitely late; median over the step's
// windows, as for the reported p99) under the limit, and no growing
// backlog — the median outstanding count over the step's last quarter
// exceeds that over its second quarter by at most backlogAllowance of
// arrivals. Medians keep a brief stall from deciding the step.
func (b *bench) meets(ph *phaseRun) bool {
	quarter := func(q int64) float64 {
		var xs []float64
		for i := int64(0); i < 10; i++ {
			xs = append(xs, float64(backlogAt(ph.phase, ph.dur*(10*q+i)/40)))
		}
		return median(xs)
	}
	w := &windows{per: 2000}
	w.add(ph, isQuery)
	return ph.failed == 0 &&
		median(w.p99) <= b.spec.LimitUS &&
		quarter(3)-quarter(1) <= ph.rate*backlogAllowance.Seconds()+1
}

// latencies returns µs from due time to reply for the selected ops; a
// failed op is +Inf (it misses every limit).
func latencies(ph *phaseRun, sel func(opKind) bool) []float64 {
	var out []float64
	for i := range ph.ops {
		if !sel(ph.ops[i].kind) {
			continue
		}
		r := &ph.recs[i]
		if r.failed {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(r.done-r.due)/1e3)
	}
	return out
}

// backlogAt counts requests sent by t (ns) whose reply had not arrived.
func backlogAt(p *phase, t int64) int {
	n := 0
	for i := range p.recs {
		r := &p.recs[i]
		if r.sent != 0 && r.sent <= t && (r.done == 0 || r.done > t) {
			n++
		}
	}
	return n
}

// heapMB is the heap in use after a forced collection: the bytes of live
// objects (HeapAlloc, which right after a collection counts only what it
// marked). HeapInuse would add the free room in partly used spans, which
// follows the run's allocation history rather than what the stack holds.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// stop stops a pass's server and reports the heap its stack held: the
// heap in use at run end with the stack live, minus the heap in use once
// the stack is stopped. The load side's state (query pool, checker, world)
// and the server's own (its world, the tracer's spans) are kept reachable
// through both readings, so they cancel out.
func (b *bench) stop(e *e2e, srv *server) {
	srv.stop()
	after := heapMB()
	e.metrics["heap_inuse_mb"] = metric{Value: e.liveMB - after}
	runtime.KeepAlive(b)
	runtime.KeepAlive(srv)
}

// pass sets a server up (n times) and measures the
// end-to-end procedure against it. The caller stops the returned server
// through bench.stop, which completes heap_inuse_mb.
func (b *bench) pass(traced bool, n int) (*e2e, *server, error) {
	srv := startServer(b, traced)
	addr, err := srv.setup(n)
	if err != nil {
		return nil, nil, err
	}
	e, err := b.measure(newTarget(addr, b.world, b.seed), srv, traced)
	if err != nil {
		srv.stop()
		return nil, nil, err
	}
	e.liveMB = heapMB()
	return e, srv, nil
}

// endToEnd is the --trace 0 run.
func (b *bench) endToEnd() (result, error) {
	e, srv, err := b.pass(false, setupRuns)
	if err != nil {
		return result{}, err
	}
	b.stop(e, srv)
	return result{Correct: e.wrong == 0, Attempted: e.attempted, Failed: e.failed, Metrics: e.metrics}, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// curve runs one phase per listed rate on one stack, each as long as the
// nominal phase, and logs each phase's latency: the curves each workload's
// rates were read from. vary names the rate the list sets: "query" (the
// latency limit and the nominal and high rates), or "ctl", "data" or
// "plan" (the write rates, measured beside the workload's own query
// traffic — the nominal rate, or a tenth of it in a write probe — with the
// other write rates as spec.json sets them).
func (b *bench) curve(list, vary string) error {
	sel := map[string]func(opKind) bool{"query": isQuery, "ctl": isCtl, "data": isData, "plan": isPlan}[vary]
	if sel == nil {
		return fmt.Errorf("bad --vary %q", vary)
	}
	srv := startServer(b, false)
	addr, err := srv.setup(1)
	if err != nil {
		return err
	}
	defer srv.stop()
	t := newTarget(addr, b.world, b.seed)
	b.check = newChecker(b.spec.ConcurrentWrites)
	for i, f := range strings.Split(list, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("bad rate %q", f)
		}
		stream, dur := int64(100+i), b.ns(nominalShare)
		if vary == "query" {
			b.run(t, b.queryPhase(t, "curve", stream, rate, dur))
			continue
		}
		bg := b.spec.Nominal
		if !b.spec.ConcurrentWrites {
			bg /= 10
		}
		var writes []op
		switch vary {
		case "ctl":
			writes = t.writes.ops(rate, b.spec.DataRate, dur, b.spec.ConcurrentWrites)
		case "data":
			writes = t.writes.ops(b.spec.CtlRate, rate, dur, b.spec.ConcurrentWrites)
		case "plan":
			writes = t.writes.planOps(rate, dur)
		}
		ph := b.run(t, newPhase("curve-"+vary, bg, dur, merge(queryOps(b.rng(stream), b.world, &b.cur, bg, dur), writes)))
		lat := latencies(ph, sel)
		fmt.Fprintf(os.Stderr, "%-14s rate %9.1f ops %7d p50 %9.1fus p99 %9.1fus\n", vary, rate, len(lat), quantile(lat, 0.5), quantile(lat, 0.99))
	}
	return nil
}
