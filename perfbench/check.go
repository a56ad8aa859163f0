package main

import (
	"bytes"
	"sync"

	"repro/internal/ad"
	"repro/internal/routeserver"
	"repro/internal/wire"
)

// checker is the correctness gate. Every found path must be legal
// (core.Oracle.Legal) under some topology/policy version in force between
// the request's send and its reply; on workloads whose answers may be
// suboptimal-but-legal after scoped invalidation (legalOnly), negatives are
// not second-guessed; elsewhere every negative must match !HasRoute.
// Replies with error codes, unexpected NotPrimary, transport errors and
// timeouts fail too.
type checker struct {
	legalOnly bool
	// memo holds, per key, the reply body (after the wire ID) of an answer
	// the oracle accepted under the starting world (version 0), so
	// repeats skip the search. One map per checking goroutine, split by
	// key.
	memo [2]map[routeserver.Key][]byte
}

func newChecker(legalOnly bool) *checker {
	return &checker{legalOnly: legalOnly, memo: [2]map[routeserver.Key][]byte{{}, {}}}
}

// check judges every record of the phase and returns the failed count and
// how many of those were wrong answers (as opposed to missing replies).
// It runs after the phase, on two goroutines.
func (c *checker) check(p *phase, m *mirror) (failed, wrong int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, bad := 0, 0
			for i := range p.recs {
				r, o := &p.recs[i], &p.ops[i]
				answer := o.kind == opQuery || o.kind == opInstall
				k := routeserver.KeyOf(o.req)
				if answer && part(k) != w {
					continue
				}
				if !answer && i%2 != w {
					continue
				}
				switch {
				case r.sent == 0 || r.done == 0:
					r.failed = true
					f++
				case !r.ok || answer && !r.verified && !c.correct(w, k, r, m):
					r.failed = true
					f++
					bad++
				}
			}
			mu.Lock()
			failed += f
			wrong += bad
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return failed, wrong
}

// part splits keys between the two checking goroutines (and their memos).
func part(k routeserver.Key) int { return int(uint32(k.Src)^uint32(k.Dst)^uint32(k.Hour)) % 2 }

// known reports whether a reply body (after the wire ID) served while the
// world was still at version 0 repeats an answer the oracle already
// accepted. Receivers call it during a phase: the memo is written only
// between phases, by check.
func (c *checker) known(k routeserver.Key, body []byte) bool {
	v, ok := c.memo[part(k)][k]
	return ok && bytes.Equal(v, body)
}

// replyBody is the QueryReply encoding of an answer after the frame header
// and the wire ID: what known compares against.
func replyBody(found bool, path ad.Path) []byte {
	return wire.Marshal(&wire.QueryReply{Found: found, Path: path})[4+8:]
}

func (c *checker) correct(w int, k routeserver.Key, r *rec, m *mirror) bool {
	if !r.found && c.legalOnly {
		return true
	}
	static := r.lo == 0 && r.hi == 0
	var body []byte
	if static {
		body = replyBody(r.found, r.path)
		if bytes.Equal(c.memo[w][k], body) {
			return true
		}
	}
	req := k.Request()
	for v := r.lo; v <= r.hi; v++ {
		o := m.oracle(v)
		ok := false
		if r.found {
			ok = o.Legal(r.path, req)
		} else {
			ok = !o.HasRoute(req)
		}
		if ok {
			if static {
				c.memo[w][k] = body
			}
			return true
		}
	}
	return false
}
