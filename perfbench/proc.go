package main

import (
	"runtime"
	"sync"
	"time"
)

// server is the serving side of a run: the stack under test, its tracer,
// and the layer snapshots taken around phases. The load side reaches it
// only over TCP for requests, and through these methods for set-up,
// counters and the per-layer report. It keeps its own bench (world and
// query population) so its replays never share state with the load side.
type server struct {
	b     *bench
	st    *stack
	tr    *tracer // nil when untraced
	snaps map[string][2]snap
	lag   lagSampler
	// setups are the set-up times of every stack built, in seconds.
	setups []float64
}

func startServer(b *bench, traced bool) *server {
	s := &server{b: &bench{spec: b.spec, name: b.name, seed: b.seed, dur: b.dur}, snaps: map[string][2]snap{}}
	if traced {
		s.tr = newTracer()
	}
	return s
}

// setup builds the stack n times, keeping the last, and returns its
// address.
func (s *server) setup(n int) (string, error) {
	for i := 0; i < max(n, 1); i++ {
		s.stop()
		st, err := s.build()
		if err != nil {
			return "", err
		}
		s.st = st
	}
	return s.st.addr, nil
}

// sampleSetup builds and stops n more stacks beside the served one, for
// their set-up times only.
func (s *server) sampleSetup(n int) error {
	for i := 0; i < n; i++ {
		st, err := s.build()
		if err != nil {
			return err
		}
		st.close()
	}
	return nil
}

// build sets a stack up from a collected heap and records its set-up
// time.
func (s *server) build() (*stack, error) {
	runtime.GC()
	st, secs, err := s.b.setup(s.tr)
	if err != nil {
		return nil, err
	}
	s.setups = append(s.setups, secs)
	return st, nil
}

// snap records the layer counters at the start (edge 0) or end (edge 1)
// of a phase. The nominal phase also bounds span recording and the HA lag
// watch.
func (s *server) snap(phase string, edge int) {
	v := s.snaps[phase]
	if edge == 0 {
		if phase == "nominal" && s.tr != nil {
			s.tr.record.Store(true)
			s.lag.start(s.st)
		}
		v[0] = takeSnap(s.st)
	} else {
		v[1] = takeSnap(s.st)
		if phase == "nominal" && s.tr != nil {
			s.tr.record.Store(false)
			s.lag.stop(s.st)
		}
	}
	s.snaps[phase] = v
}

// stop drains the daemon and stops the group.
func (s *server) stop() {
	if s.st != nil {
		s.st.close()
		s.st = nil
	}
}

// layerIn is what the load side hands the server side for the per-layer
// report.
type layerIn struct {
	// Ops counts the nominal phase's operations (per-op ratios).
	Ops int
	// Cursor is where the load side's query population left off, so the
	// replays ask fresh keys.
	Cursor int
	// Samples are the traced nominal requests as the load side timed them.
	Samples []sample
}

// lagSampler watches HA follower lag during the nominal phase and times
// the followers' catch-up once it ends.
type lagSampler struct {
	quit    chan struct{}
	wg      sync.WaitGroup
	max     uint64
	catchup time.Duration
}

func (l *lagSampler) start(st *stack) {
	if len(st.followers) == 0 {
		return
	}
	l.quit = make(chan struct{})
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-t.C:
				l.max = max(l.max, st.followerLag())
			}
		}
	}()
}

func (l *lagSampler) stop(st *stack) {
	if l.quit == nil {
		return
	}
	close(l.quit)
	l.wg.Wait()
	t0 := time.Now()
	if err := st.awaitFollowers(10 * time.Second); err != nil {
		warn("%v", err)
	}
	l.catchup = time.Since(t0)
}
