package main

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver/daemon"
	"repro/internal/wire"
)

// TestSessionParityLineVsProtocol pins that the stdin line mode and the
// binary protocol are two skins over the same dispatch: a scripted session
// — queries, fail/restore/policy churn, data-plane lifecycle, stats — run
// over a TCP daemon must produce, reply by reply, the results the line
// mode prints for the same commands against an identical world.
func TestSessionParityLineVsProtocol(t *testing.T) {
	// The protocol side: its own world behind a TCP daemon.
	g, db, srv, dp := testWorld(t)
	d := daemon.New(daemon.NewBackend(srv, dp, g, db), daemon.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	defer d.Drain()
	cl, err := daemon.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Each step is one line-mode command plus the wire calls that mirror
	// it; the wire replies are rendered with the line adapter's formats so
	// the two transcripts must match byte for byte.
	var lines, fromWire []string
	step := func(line string, viaWire func() string) {
		lines = append(lines, line)
		fromWire = append(fromWire, viaWire())
	}
	query := func(src, dst uint32) func() string {
		return func() string {
			res, err := cl.Query(policy.Request{Src: ad.ID(src), Dst: ad.ID(dst)})
			if err != nil {
				t.Fatalf("query %d %d: %v", src, dst, err)
			}
			if !res.Found {
				return fmt.Sprintf("no-route %v\n", policy.Request{Src: ad.ID(src), Dst: ad.ID(dst)})
			}
			return fmt.Sprintf("%v\n", res.Path)
		}
	}
	control := func(op uint8, a, b uint32, cost uint32) func() string {
		return func() string {
			cr, err := cl.Control(op, ad.ID(a), ad.ID(b), cost)
			if err != nil {
				t.Fatalf("control %d: %v", op, err)
			}
			if !cr.OK() {
				return cr.Err + "\n"
			}
			if op == wire.CtlInvalidate {
				return fmt.Sprintf("ok (gen %d)\n", cr.Gen)
			}
			var out string
			if cr.Flushed > 0 {
				out = fmt.Sprintf("flushed %d handle entries\n", cr.Flushed)
			}
			return out + fmt.Sprintf("ok (evicted %d, retained %d)\n", cr.Evicted, cr.Retained)
		}
	}

	step("install 1 4", func() string {
		dr, err := cl.DataOp(wire.OpInstall, 0, 0, policy.Request{Src: 1, Dst: 4})
		if err != nil {
			t.Fatalf("install: %v", err)
		}
		if dr.Code != wire.DataOK {
			return fmt.Sprintf("no-route %v\n", policy.Request{Src: 1, Dst: 4})
		}
		return fmt.Sprintf("handle %d via %v\n", dr.Handle, dr.Path)
	})
	step("send 1", func() string {
		dr, err := cl.DataOp(wire.OpSend, 1, 0, policy.Request{})
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		if dr.Code != wire.DataOK {
			t.Fatalf("send code %d", dr.Code)
		}
		return "delivered\n"
	})
	step("1 4", query(1, 4))
	step("fail 2 4", control(wire.CtlFail, 2, 4, 0))
	step("1 4", query(1, 4))
	step("repair", func() string {
		dr, err := cl.DataOp(wire.OpRepair, 0, 0, policy.Request{})
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		return fmt.Sprintf("repaired %d/%d flows\n", dr.N2, dr.N1)
	})
	step("restore 2 4", control(wire.CtlRestore, 2, 4, 0))
	step("1 4", query(1, 4))
	step("fail 9 9", control(wire.CtlFail, 9, 9, 0))
	step("restore 9 9", control(wire.CtlRestore, 9, 9, 0))
	step("policy 2 100", control(wire.CtlPolicy, 2, 0, 100))
	step("1 4", query(1, 4))
	step("invalidate", control(wire.CtlInvalidate, 0, 0, 0))
	step("1 4", query(1, 4))
	step("99 98", query(99, 98))

	// Plan/commit must render identically too: the what-if report, the
	// committed summary, the staleness refusal, and the unknown-plan error
	// all flow through the same HandlePlan/RenderPlanReply pair.
	planWire := func(steps ...wire.PlanStep) func() string {
		return func() string {
			rep, err := cl.Plan(steps)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			return strings.Join(daemon.RenderPlanReply(rep), "\n") + "\n"
		}
	}
	commitWire := func(id uint64) func() string {
		return func() string {
			rep, err := cl.Commit(id)
			if err != nil {
				t.Fatalf("commit %d: %v", id, err)
			}
			return strings.Join(daemon.RenderPlanReply(rep), "\n") + "\n"
		}
	}
	step("plan fail 2 4; policy 2 50", planWire(
		wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4},
		wire.PlanStep{Op: wire.CtlPolicy, A: 2, Cost: 50},
	))
	step("commit 1", commitWire(1))
	step("1 4", query(1, 4))
	step("restore 2 4", control(wire.CtlRestore, 2, 4, 0))
	step("plan fail 2 4", planWire(wire.PlanStep{Op: wire.CtlFail, A: 2, B: 4}))
	step("policy 2 1", control(wire.CtlPolicy, 2, 0, 1))
	step("commit 2", commitWire(2)) // stale: the policy change moved the epoch
	step("commit 99", commitWire(99))
	step("plan", func() string {
		_, err := parsePlanSteps("")
		return err.Error() + "\n"
	})

	step("stats", func() string {
		st, err := cl.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		return fmt.Sprintf("gen %d: %d queries, %d hits, %d coalesced, %d misses, %d failures, %d cached\n",
			st.Gen, st.Queries, st.Hits, st.Coalesced, st.Misses, st.Failures, st.Cached)
	})

	// The line side: the same script against a fresh identical world.
	lineOut := session(t, strings.Join(lines, "\n")+"\n")
	if want := strings.Join(fromWire, ""); lineOut != want {
		t.Fatalf("line mode and binary protocol diverged.\nline mode:\n%s\nprotocol:\n%s", lineOut, want)
	}
}

// TestServeLongLines pins the scanner regression: a line beyond
// bufio.Scanner's 64KB default must still be served, and input beyond
// maxLineBytes must surface a read error instead of masquerading as a
// clean quit.
func TestServeLongLines(t *testing.T) {
	long := "# " + strings.Repeat("x", 100*1024)
	out := session(t, long+"\n1 4\nquit\n")
	if !strings.Contains(out, "AD1>AD2>AD4") {
		t.Fatalf("session died on a 100KB line:\n%s", out)
	}

	g, db, srv, dp := testWorld(t)
	var sb strings.Builder
	huge := strings.Repeat("y", maxLineBytes+1)
	err := serve(strings.NewReader(huge), &sb, daemon.NewBackend(srv, dp, g, db))
	if err == nil {
		t.Fatal("an over-limit line was not surfaced as an error")
	}
	if !strings.Contains(sb.String(), "read error") {
		t.Fatalf("read error not reported to the session:\n%s", sb.String())
	}
}

// TestUnknownADPolicyRefused pins that a policy step naming an AD the
// graph does not have is refused on every front end — line mode, a wire
// Control, a plan step over the wire and in line mode, and the in-process
// SetPolicy — without moving the mutation epoch or replicating anything.
func TestUnknownADPolicyRefused(t *testing.T) {
	g, db, srv, dp := testWorld(t)
	be := daemon.NewBackend(srv, dp, g, db)
	replicated := 0
	be.SetReplicator(func(uint8, ad.ID, ad.ID, uint32) { replicated++ })
	d := daemon.New(be, daemon.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	defer d.Drain()
	cl, err := daemon.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	epoch := srv.Epoch()

	var out strings.Builder
	serveLine("policy 9999 5", &out, be)
	serveLine("plan policy 9999 3", &out, be)
	if got, want := out.String(), "unknown AD AD9999\nerror: step 1: unknown AD AD9999\n"; got != want {
		t.Errorf("line mode = %q, want %q", got, want)
	}
	if cr, err := cl.Control(wire.CtlPolicy, 9999, 0, 5); err != nil || cr.OK() || cr.Err != "unknown AD AD9999" {
		t.Errorf("wire control = %+v, %v", cr, err)
	}
	if pr, err := cl.Plan([]wire.PlanStep{{Op: wire.CtlPolicy, A: 9999, Cost: 3}}); err != nil || pr.OK() ||
		!strings.Contains(pr.Err, "unknown AD AD9999") {
		t.Errorf("wire plan = %+v, %v", pr, err)
	}
	if evicted, retained := be.SetPolicy(9999, 5); evicted != 0 || retained != 0 {
		t.Errorf("SetPolicy = (%d, %d), want a refusal", evicted, retained)
	}
	if now := srv.Epoch(); now != epoch || replicated != 0 {
		t.Errorf("epoch %d -> %d, %d ops replicated; want no change", epoch, now, replicated)
	}
}
