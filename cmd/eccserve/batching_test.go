package main

import (
	"crypto/rand"
	"crypto/sha256"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/frame"
)

// TestPipelinedSignFormsBatches keeps 64 TSign requests outstanding on
// one connection and checks that the default server batches them:
// the frames of one connection read must share engine batches even
// though no batch timer holds a batch open for them. It pins one P,
// where the request goroutines only reach the engine before it closes
// a batch if its worker yields (without the yield the mean is 1.02).
// On two Ps the reader and the worker run side by side and the mean
// follows OS scheduling, with or without the yield.
func TestPipelinedSignFormsBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, addr := startTestServer(t, serverConfig{})
	fc := dialFrame(t, addr)
	fc.SetReadIdleTimeout(30 * time.Second)

	const total, depth = 4000, 64
	digest := sha256.Sum256([]byte("pipelined"))
	slots := make(chan struct{}, depth)
	stop := make(chan struct{})
	defer close(stop)
	werr := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= total; id++ {
			select {
			case slots <- struct{}{}:
			case <-stop:
				werr <- nil
				return
			}
			if err := fc.Write(id, frame.TSign, digest[:]); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	for n := 0; n < total; n++ {
		f, err := fc.Read()
		if err != nil {
			t.Fatalf("response %d: %v", n, err)
		}
		if f.Type != frame.TOK || len(f.Payload) != frame.SigSize {
			t.Fatalf("response %d: type %#x len %d", n, f.Type, len(f.Payload))
		}
		<-slots
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}

	batches, ops := s.m.batches.Load(), s.m.batchOps.Load()
	if ops != total {
		t.Fatalf("batch observer saw %d ops, want %d", ops, total)
	}
	if mean := float64(ops) / float64(batches); mean < 8 {
		t.Fatalf("mean batch %.2f over %d batches with %d requests outstanding, want >= 8", mean, batches, depth)
	}
}

// TestSoloSignLatency checks that a lone request waits for no timer:
// the median round trip of sequential TSign requests must stay within
// 10x of an in-process one-shot Sign measured in the same run. A
// batch window of a few hundred microseconds puts this ratio past 40.
func TestSoloSignLatency(t *testing.T) {
	_, addr := startTestServer(t, serverConfig{})
	fc := dialFrame(t, addr)

	const n = 300
	digest := sha256.Sum256([]byte("solo"))
	p50 := func(op func() error) time.Duration {
		lats := make([]time.Duration, n)
		for i := range lats {
			t0 := time.Now()
			if err := op(); err != nil {
				t.Fatal(err)
			}
			lats[i] = time.Since(t0)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[n/2]
	}

	priv, err := repro.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	local := p50(func() error {
		_, err := repro.Sign(priv, digest[:], rand.Reader)
		return err
	})
	id := uint64(0)
	wire := p50(func() error {
		id++
		f, err := fc.Roundtrip(id, frame.TSign, digest[:])
		if err == nil && (f.Type != frame.TOK || len(f.Payload) != frame.SigSize) {
			t.Fatalf("sign %d: type %#x len %d", id, f.Type, len(f.Payload))
		}
		return err
	})
	t.Logf("solo sign p50: wire %v, in-process %v (%.1fx)", wire, local, float64(wire)/float64(local))
	if wire > 10*local {
		t.Fatalf("solo TSign p50 %v is %.1fx the in-process Sign p50 %v, want <= 10x",
			wire, float64(wire)/float64(local), local)
	}
}
