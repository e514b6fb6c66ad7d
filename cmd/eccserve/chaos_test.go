package main

import (
	"crypto/sha256"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/frame"
)

// startChaosServer boots a server behind the fault-injection listener.
// Every injection is mirrored into the faultsInjected metric, the same
// wiring as eccserve's -fault-rate chaos mode.
func startChaosServer(t *testing.T, cfg serverConfig, plans func(int) fault.Plan, accepts fault.Plan) (*server, string, *fault.Counters) {
	t.Helper()
	cfg.Quiet = true
	rnd := rand.New(rand.NewSource(235))
	priv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(priv, cfg)
	ctr := &fault.Counters{OnInject: func(fault.Kind) { s.m.faultsInjected.Add(1) }}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.serve(fault.WrapListener(ln, plans, accepts, ctr))
	t.Cleanup(s.shutdown)
	return s, ln.Addr().String(), ctr
}

// waitGoroutines polls until the process goroutine count returns to
// limit (faulted connections and abandoned requests need a moment to
// unwind after shutdown), failing with a full stack dump if it never
// does — the no-leak invariant of the chaos suite.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, want <= %d\n%s",
				n, limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosMixedTrafficFaultShapes is the chaos integration suite: a
// live server behind the fault listener, clean and seeded traffic in
// flight while five distinct scripted fault shapes fire (read stall,
// write stall, reset, torn write, partial write) plus a genuinely idle
// client. Invariants: only the faulted connections are affected, every
// injected fault lands in a metric, drain completes within its bound
// with a stalled write in flight, and no goroutines leak.
func TestChaosMixedTrafficFaultShapes(t *testing.T) {
	before := runtime.NumGoroutine()

	const (
		readIdle     = 400 * time.Millisecond
		writeTimeout = 300 * time.Millisecond
		drainTimeout = 5 * time.Second
	)
	// Connections are dialed (and therefore accepted) in a fixed order,
	// so the accept index selects the fault shape. The second call of
	// the faulted operation is scripted — the first request on each
	// connection completes cleanly, proving the fault broke a working
	// connection rather than a dead one.
	stall := 10 * time.Second // far beyond every deadline: only the deadline can end it
	plans := func(conn int) fault.Plan {
		switch conn {
		case 1:
			return &fault.Script{Reads: fault.Nth(2, fault.Action{Kind: fault.KindReadStall, Delay: stall})}
		case 2:
			return &fault.Script{Writes: fault.Nth(2, fault.Action{Kind: fault.KindWriteStall, Delay: stall})}
		case 3:
			// Read call 3 is entered only after the second request was
			// read, so the RST cannot race the handshake response.
			return &fault.Script{Reads: fault.Nth(3, fault.Action{Kind: fault.KindReset})}
		case 4:
			return &fault.Script{Writes: fault.Nth(2, fault.Action{Kind: fault.KindTornWrite, Cut: 3})}
		case 5:
			return &fault.Script{Writes: fault.Nth(2, fault.Action{Kind: fault.KindPartialWrite, Cut: 5})}
		case 14:
			// The drain-under-stall conn: its second response write
			// stalls far beyond DrainTimeout; only the write deadline
			// can resolve it.
			return &fault.Script{Writes: fault.Nth(2, fault.Action{Kind: fault.KindWriteStall, Delay: stall})}
		}
		if conn >= 10 && conn <= 12 {
			// Seeded background chaos at low rates; stalls short enough
			// to resolve inside the test.
			return fault.NewSeeded(int64(conn), fault.Mix{
				PartialWrite: 0.02, Reset: 0.02, WriteStall: 0.02, TornWrite: 0.02,
				Stall: 100 * time.Millisecond,
			})
		}
		return nil // conns 6-9: clean
	}
	s, addr, ctr := startChaosServer(t, serverConfig{
		Shards:   2,
		ReadIdle: readIdle, WriteTimeout: writeTimeout, DrainTimeout: drainTimeout,
	}, plans, nil)

	digest := sha256.Sum256([]byte("chaos"))
	ping := func(fc *frame.Conn, id uint64) bool {
		f, err := fc.Roundtrip(id, frame.TPing)
		return err == nil && f.Type == frame.TOK
	}

	// Dial the five scripted connections strictly in order, proving
	// each is accepted (ping answered) before the next dial so the
	// accept index cannot skew.
	faulted := make([]*frame.Conn, 5)
	for i := range faulted {
		fc := dialFrame(t, addr)
		fc.SetRoundtripTimeout(3 * time.Second)
		if !ping(fc, 1) {
			t.Fatalf("fault conn %d: clean first roundtrip failed", i+1)
		}
		faulted[i] = fc
	}
	// Conn 6 goes idle after its handshake: the real read-idle deadline
	// path, no fault involved.
	idle := dialFrame(t, addr)
	idle.SetRoundtripTimeout(3 * time.Second)
	if !ping(idle, 1) {
		t.Fatal("idle conn: handshake failed")
	}

	var wg sync.WaitGroup
	// Clean traffic on conns 7-9 runs while every fault fires; each op
	// must succeed — a faulted connection may only cost itself.
	cleanErrs := make(chan error, 3)
	for c := 0; c < 3; c++ {
		fc := dialFrame(t, addr)
		fc.SetRoundtripTimeout(5 * time.Second)
		wg.Add(1)
		go func(fc *frame.Conn) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f, err := fc.Roundtrip(uint64(i+2), frame.TSign, digest[:])
				if err != nil {
					cleanErrs <- err
					return
				}
				if f.Type != frame.TOK {
					t.Errorf("clean conn: response type %#x", f.Type)
					return
				}
			}
		}(fc)
	}
	// The scripted faults fire on the second request of each faulted
	// connection; the exchange may fail any way it likes, it only has
	// to stay bounded.
	for _, fc := range faulted {
		wg.Add(1)
		go func(fc *frame.Conn) {
			defer wg.Done()
			fc.Roundtrip(2, frame.TSign, digest[:])
		}(fc)
	}
	// Seeded chaos on conns 10-12: errors are expected and tolerated.
	for c := 0; c < 3; c++ {
		fc := dialFrame(t, addr)
		fc.SetRoundtripTimeout(2 * time.Second)
		wg.Add(1)
		go func(fc *frame.Conn) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := fc.Roundtrip(uint64(i+2), frame.TSign, digest[:]); err != nil {
					return // seeded fault killed the conn; fine
				}
			}
		}(fc)
	}
	wg.Wait()
	select {
	case err := <-cleanErrs:
		t.Fatalf("clean connection failed while faults fired elsewhere: %v", err)
	default:
	}

	// The idle connection times out on the real deadline path.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("idle + stalled conns to time out", func() bool { return s.m.connTimeouts.Load() >= 3 })

	// Every scripted shape fired at least once...
	for _, k := range []fault.Kind{
		fault.KindReadStall, fault.KindWriteStall, fault.KindReset,
		fault.KindTornWrite, fault.KindPartialWrite,
	} {
		if ctr.Count(k) < 1 {
			t.Errorf("fault shape %v never fired (counters: %s)", k, ctr)
		}
	}
	// ...every injection is visible in the server's metric, and the
	// failures are classified: stalls became timeouts, reset/torn/
	// partial became connection errors.
	if got, want := s.m.faultsInjected.Load(), ctr.Total(); got != want {
		t.Errorf("faultsInjected metric = %d, counters say %d", got, want)
	}
	if s.m.connErrors.Load() < 3 {
		t.Errorf("connErrors = %d, want >= 3 (reset, torn write, partial write)", s.m.connErrors.Load())
	}
	// The listener survived it all: a fresh connection still works.
	probe := dialFrame(t, addr)
	probe.SetRoundtripTimeout(3 * time.Second)
	if !ping(probe, 99) {
		t.Fatal("server stopped accepting after connection faults")
	}

	// Drain with a stalled write in flight: conn 14's second response
	// write stalls far beyond the drain bound, but the write deadline
	// resolves it, so the drain completes within DrainTimeout instead
	// of abandoning.
	wsBefore := ctr.Count(fault.KindWriteStall)
	stalled := dialFrame(t, addr)
	stalled.SetRoundtripTimeout(3 * time.Second)
	if !ping(stalled, 1) {
		t.Fatal("drain-stall conn: handshake failed")
	}
	go stalled.Roundtrip(2, frame.TSign, digest[:])
	waitFor("the drain-stall request to be in flight", func() bool { return ctr.Count(fault.KindWriteStall) > wsBefore })

	start := time.Now()
	s.shutdown()
	if d := time.Since(start); d >= drainTimeout {
		t.Fatalf("drain took %v with a deadline-bounded stalled write, want < %v", d, drainTimeout)
	}
	waitGoroutines(t, before+2)
}

// TestDrainTimeoutAbandonsStalledWrite pins the drain-timeout abandon
// path: with no write deadline armed, a response write stalled by a
// fault outlives DrainTimeout, so the drain must give up on it at the
// bound, and the connection teardown that follows must unwind the
// stalled goroutine rather than leak it.
func TestDrainTimeoutAbandonsStalledWrite(t *testing.T) {
	before := runtime.NumGoroutine()
	const drainTimeout = 300 * time.Millisecond
	plans := func(conn int) fault.Plan {
		return &fault.Script{Writes: fault.Nth(2, fault.Action{Kind: fault.KindWriteStall, Delay: 30 * time.Second})}
	}
	s, addr, ctr := startChaosServer(t, serverConfig{
		Shards: 1, DrainTimeout: drainTimeout, // WriteTimeout deliberately zero
	}, plans, nil)

	fc := dialFrame(t, addr)
	fc.SetRoundtripTimeout(3 * time.Second)
	if f, err := fc.Roundtrip(1, frame.TPing); err != nil || f.Type != frame.TOK {
		t.Fatalf("handshake: type %#x err %v", f.Type, err)
	}
	digest := sha256.Sum256([]byte("abandon"))
	go fc.Roundtrip(2, frame.TSign, digest[:])
	deadline := time.Now().Add(5 * time.Second)
	for ctr.Count(fault.KindWriteStall) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled write never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	s.shutdown()
	elapsed := time.Since(start)
	if elapsed < drainTimeout {
		t.Fatalf("shutdown returned in %v, before the %v drain bound — the stall was not in flight", elapsed, drainTimeout)
	}
	if elapsed > drainTimeout+5*time.Second {
		t.Fatalf("shutdown took %v, want roughly the %v drain bound", elapsed, drainTimeout)
	}
	fc.Close()
	waitGoroutines(t, before+2)
}

// TestMaxConnsRejectsWithHandshakeOverload: beyond -max-conns a new
// connection is answered with a connection-level TOverload frame
// (id 0) and closed — distinct from inflight shedding — and the slot
// freed by a departing connection is reusable.
func TestMaxConnsRejectsWithHandshakeOverload(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{MaxConns: 1})

	first := dialFrame(t, addr)
	if f, err := first.Roundtrip(1, frame.TPing); err != nil || f.Type != frame.TOK {
		t.Fatalf("first conn ping: type %#x err %v", f.Type, err)
	}

	over := dialFrame(t, addr)
	f, err := over.Read()
	if err != nil {
		t.Fatalf("over-cap conn: expected a handshake reject frame, got %v", err)
	}
	if f.ID != 0 || f.Type != frame.TOverload {
		t.Fatalf("over-cap conn: id %d type %#x, want id 0 TOverload", f.ID, f.Type)
	}
	// The server closes a rejected connection after the frame.
	if _, err := over.Read(); err == nil {
		t.Fatal("rejected connection was not closed")
	}
	if got := s.m.connsRejected.Load(); got != 1 {
		t.Fatalf("connsRejected = %d, want 1", got)
	}
	if got := s.m.shed.Load(); got != 0 {
		t.Fatalf("handshake reject leaked into the shed counter (%d)", got)
	}

	// Freeing the occupied slot makes the cap admit again.
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.m.conns.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("closed connection never deregistered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	next := dialFrame(t, addr)
	if f, err := next.Roundtrip(1, frame.TPing); err != nil || f.Type != frame.TOK {
		t.Fatalf("ping after slot freed: type %#x err %v", f.Type, err)
	}
}

// TestStalledWriterFreesInflightSlot is the stalled-client-pins-shard
// regression (fails on the pre-deadline code): with MaxInflight 1, a
// client that stops reading used to wedge its response write forever,
// holding the only inflight slot and starving every other connection
// into TOverload. The write deadline must free the slot.
func TestStalledWriterFreesInflightSlot(t *testing.T) {
	plans := func(conn int) fault.Plan {
		if conn == 1 {
			return &fault.Script{Writes: fault.Nth(2, fault.Action{Kind: fault.KindWriteStall, Delay: 30 * time.Second})}
		}
		return nil
	}
	s, addr, _ := startChaosServer(t, serverConfig{
		Shards: 1, MaxInflight: 1, MaxBatch: 1,
		WriteTimeout: 200 * time.Millisecond,
	}, plans, nil)

	staller := dialFrame(t, addr)
	staller.SetRoundtripTimeout(3 * time.Second)
	if f, err := staller.Roundtrip(1, frame.TPing); err != nil || f.Type != frame.TOK {
		t.Fatalf("staller handshake: type %#x err %v", f.Type, err)
	}
	digest := sha256.Sum256([]byte("pin"))
	go staller.Roundtrip(2, frame.TSign, digest[:]) // response write stalls, slot held

	// A second connection must get real service once the write deadline
	// frees the slot; without deadlines it sees TOverload forever.
	other := dialFrame(t, addr)
	other.SetRoundtripTimeout(3 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for id := uint64(1); ; id++ {
		f, err := other.Roundtrip(id, frame.TSign, digest[:])
		if err != nil {
			t.Fatalf("second conn roundtrip: %v", err)
		}
		if f.Type == frame.TOK {
			break // the slot came back
		}
		if f.Type != frame.TOverload {
			t.Fatalf("second conn: response type %#x", f.Type)
		}
		if time.Now().After(deadline) {
			t.Fatal("inflight slot never freed: stalled writer still pins the shard")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s.m.connTimeouts.Load() == 0 {
		t.Fatal("stalled write freed the slot without being counted as a timeout")
	}
}

// TestChaosAcceptFaults: injected accept errors are retried like any
// transient accept failure — the listener is never torn down and the
// connection behind them still gets served.
func TestChaosAcceptFaults(t *testing.T) {
	s, addr, ctr := startChaosServer(t, serverConfig{},
		nil,
		&fault.Script{Accepts: []fault.Action{{Kind: fault.KindAcceptError}, {Kind: fault.KindAcceptError}}})

	fc := dialFrame(t, addr)
	fc.SetRoundtripTimeout(5 * time.Second)
	f, err := fc.Roundtrip(1, frame.TPing)
	if err != nil || f.Type != frame.TOK {
		t.Fatalf("ping behind injected accept errors: type %#x err %v", f.Type, err)
	}
	if got := ctr.Count(fault.KindAcceptError); got != 2 {
		t.Fatalf("injected accept errors = %d, want 2", got)
	}
	select {
	case <-s.stopped:
		t.Fatal("injected accept errors shut the server down")
	default:
	}
}
