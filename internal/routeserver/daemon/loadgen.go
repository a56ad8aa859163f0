package daemon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/routeserver"
)

// QueryConn is one load client's connection to the serving target.
type QueryConn interface {
	Query(policy.Request) (routeserver.Result, error)
	// Close drops the connection; the next Query redials. The harness's
	// connection churn (ReconnectEvery) relies on this.
	Close() error
}

// Dialer opens one load client's connection. seed derandomizes the
// client's reconnect-backoff jitter and timeout bounds each round trip;
// the in-process target ignores both.
type Dialer func(seed int64, timeout time.Duration) QueryConn

// BackendDialer is the in-process load target: clients call the backend
// directly, with no framing, session or socket in between.
func BackendDialer(be *Backend) Dialer {
	return func(int64, time.Duration) QueryConn { return backendConn{be} }
}

// FailoverDialer is the wire load target: every client is a failover
// client over addrs — one daemon address, or an HA replica set whose
// NotPrimary redirects are followed and dead replicas rotated past.
func FailoverDialer(network string, addrs []string) Dialer {
	return func(seed int64, timeout time.Duration) QueryConn {
		return DialFailover(network, addrs, timeout, seed)
	}
}

// backendConn adapts a Backend to QueryConn.
type backendConn struct{ be *Backend }

func (c backendConn) Query(req policy.Request) (routeserver.Result, error) {
	return c.be.Query(req), nil
}

func (backendConn) Close() error { return nil }

// DefaultTimeout is the load clients' round-trip bound when
// LoadConfig.Timeout is unset.
const DefaultTimeout = 2 * time.Second

// LoadEvent is one churn injection in a load run's timeline.
type LoadEvent struct {
	// After is the workload fraction (0..1) at which the event fires.
	After float64
	// Label names the event in reports.
	Label string
	// Fire applies the mutation; an error stops the timeline.
	Fire func() error
}

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	// Dial opens each client's connection and picks the target.
	Dial Dialer
	// Clients is the number of concurrent clients, each driven by its own
	// goroutine over its own connection (default 4).
	Clients int
	// ReconnectEvery injects connection churn: each client closes its
	// connection after this many requests and redials (0 = never).
	ReconnectEvery int
	// Events is the churn timeline, fired in order from a side goroutine
	// as the answered-request count crosses each event's fraction.
	Events []LoadEvent
	// Seed derandomizes the reconnect-backoff jitter (default 1; client i
	// dials with Seed+i).
	Seed int64
	// Timeout bounds each request round trip (default DefaultTimeout); it
	// is the client-side heartbeat that detects a silently dead primary.
	Timeout time.Duration
}

func (c LoadConfig) normalize() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LoadReport summarizes a load run.
type LoadReport struct {
	// Requests is the workload length; Served of them found a route,
	// NoRoute did not, and Errors failed after every retry.
	Requests, Served, NoRoute, Errors int
	// Reconnects counts voluntary connection-churn redials plus failover
	// rotations off a dead replica.
	Reconnects int
	// ReconnectFailures counts dial attempts that failed (connection
	// refused at -max-conns, dead primary before failover kicks in): each
	// one cost a backoff sleep before the next attempt.
	ReconnectFailures int
	// Redirects counts NotPrimary replies followed to the named primary.
	Redirects int
	// MaxStall is the longest gap between consecutive successful replies
	// across all clients — the availability gap a failover opens.
	MaxStall time.Duration
	// Elapsed is the serving phase's wall-clock duration; QPS is
	// Requests/Elapsed.
	Elapsed time.Duration
	QPS     float64
	// Latency digests client-measured per-request latency (P50/P95/P99).
	Latency metrics.LatencySummary
	// EventErr is the first timeline event failure; later events did not
	// fire.
	EventErr error
}

// stallTracker records the longest gap between consecutive successful
// replies, cluster-wide.
type stallTracker struct {
	mu     sync.Mutex
	last   time.Time
	maxGap time.Duration
}

func (st *stallTracker) success(t time.Time) {
	st.mu.Lock()
	if gap := t.Sub(st.last); gap > st.maxGap {
		st.maxGap = gap
	}
	if t.After(st.last) {
		st.last = t
	}
	st.mu.Unlock()
}

// LoadRun replays the workload against cfg.Dial's target from cfg.Clients
// concurrent clients — client i takes requests i, i+C, i+2C, … — with
// optional connection churn and a churn-event timeline, and blocks until
// every request is answered or exhausts its retries. The target is the
// only thing that differs between the in-process and wire runs, so the
// gap between their reports is the cost of the layers in between. For
// deterministic phase-by-phase serving use routeserver.ServePhase.
func LoadRun(workload []policy.Request, cfg LoadConfig) LoadReport {
	cfg = cfg.normalize()
	rep := LoadReport{Requests: len(workload)}
	if len(workload) == 0 {
		return rep
	}
	n := min(cfg.Clients, len(workload))

	var (
		progress   atomic.Uint64 // requests answered so far
		served     atomic.Uint64
		noRoute    atomic.Uint64
		errCount   atomic.Uint64
		reconnects atomic.Uint64
		dialFails  atomic.Uint64
		redirects  atomic.Uint64
		hist       metrics.Histogram
	)

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for _, ev := range cfg.Events {
			threshold := uint64(ev.After * float64(len(workload)))
			for progress.Load() < threshold {
				select {
				case <-stop:
					return
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
			if err := ev.Fire(); err != nil {
				rep.EventErr = fmt.Errorf("event %q: %w", ev.Label, err)
				return
			}
		}
	}()

	start := time.Now()
	stalls := stallTracker{last: start}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := cfg.Dial(cfg.Seed+int64(c), cfg.Timeout)
			defer cl.Close()
			sent := 0
			for i := c; i < len(workload); i += n {
				if cfg.ReconnectEvery > 0 && sent > 0 && sent%cfg.ReconnectEvery == 0 {
					cl.Close()
					reconnects.Add(1)
				}
				t0 := time.Now()
				res, err := cl.Query(workload[i])
				t1 := time.Now()
				hist.Observe(t1.Sub(t0))
				switch {
				case err != nil:
					errCount.Add(1)
				case res.Found:
					served.Add(1)
					stalls.success(t1)
				default:
					noRoute.Add(1)
					stalls.success(t1)
				}
				progress.Add(1)
				sent++
			}
			if fo, ok := cl.(*Failover); ok {
				fs := fo.RecoveryStats()
				reconnects.Add(fs.Reconnects)
				dialFails.Add(fs.Failures)
				redirects.Add(fs.Redirects)
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)

	close(stop)
	<-churnDone

	rep.Served = int(served.Load())
	rep.NoRoute = int(noRoute.Load())
	rep.Errors = int(errCount.Load())
	rep.Reconnects = int(reconnects.Load())
	rep.ReconnectFailures = int(dialFails.Load())
	rep.Redirects = int(redirects.Load())
	rep.MaxStall = stalls.maxGap
	if rep.Elapsed > 0 {
		rep.QPS = float64(rep.Requests) / rep.Elapsed.Seconds()
	}
	rep.Latency = hist.Snapshot()
	return rep
}
