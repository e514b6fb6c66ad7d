// Command eccload is the load generator for the concurrent batch
// engine: it hammers ECDH, signing or generic scalar multiplication
// from a sweep of goroutine counts and batch sizes, comparing the
// naive per-goroutine loop (one-shot calls on every goroutine) against
// the batch engine, and reports throughput, latency percentiles and
// allocation rates:
//
//	eccload -op ecdh -gs 1,8 -batches 1,32 -dur 2s
//
// With -addr it becomes a network client instead, driving a running
// cmd/eccserve over the internal/frame protocol and reporting
// end-to-end ops/s and latency percentiles:
//
//	eccload -addr 127.0.0.1:9233 -op mixed -gs 4 -dur 2s
//
// The interesting column is the speedup at realistic server settings
// (many goroutines, batch ≈ 32): that is where the engine's amortised
// inversions, τ-adic validation and allocation-free scratch paths pay.
package main

import (
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/engine"
	"repro/internal/gf233"
	"repro/internal/sign"
)

var (
	addrFlag    = flag.String("addr", "", "network mode: drive a running eccserve at this address instead of in-process engines")
	opFlag      = flag.String("op", "ecdh", "operation to load: ecdh, sign, verify, or scalarmult (network mode adds ping, verifyr, cert and mixed)")
	gsFlag      = flag.String("gs", "1,2,4,8", "comma-separated client goroutine counts to sweep")
	batchesFlag = flag.String("batches", "1,8,32", "comma-separated engine batch sizes to sweep")
	durFlag     = flag.Duration("dur", 2*time.Second, "measurement duration per configuration")
	workersFlag = flag.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS)")
	naiveFlag   = flag.Bool("naive", true, "also run the naive per-goroutine baseline")
	backendFlag = flag.String("backend", "", "pin the field backend: 32, 64 or clmul (default: fastest supported; also settable via GF233_BACKEND)")

	// Network-mode robustness knobs.
	netTimeoutFlag = flag.Duration("net-timeout", 5*time.Second, "network mode: per-roundtrip deadline (0 = none)")
	retriesFlag    = flag.Int("retries", 3, "network mode: retry attempts per operation after an I/O failure (every wire op is a pure request/response, so retry is safe)")
	errBudgetFlag  = flag.Int("err-budget", 0, "network mode: exit 1 only if more than this many operations fail after retries")
)

func parseList(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "eccload: bad list entry %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// result is one measured configuration.
type result struct {
	ops      int
	dur      time.Duration
	p50, p99 time.Duration
	allocs   float64 // heap allocations per op
}

func (r result) opsPerSec() float64 { return float64(r.ops) / r.dur.Seconds() }

func (r result) String() string {
	return fmt.Sprintf("%9.0f ops/s  p50=%8s p99=%8s  allocs/op=%6.1f",
		r.opsPerSec(), r.p50.Round(time.Microsecond), r.p99.Round(time.Microsecond), r.allocs)
}

// run drives g goroutines calling op until the deadline and merges
// their latency records. op reports whether its call was answered;
// only answered calls are counted and sampled, so a shed or failed
// request never lands in the percentiles. stride is how many
// operations one op call completes (1 for the one-shot paths, the
// batch size for the direct slice kernels); each completed operation
// is recorded with its call's latency.
func run(g int, dur time.Duration, stride int, op func(worker, i int) bool) result {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lats := make([][]time.Duration, g)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := make([]time.Duration, 0, 1<<18)
			for i := 0; ; i++ {
				t0 := time.Now()
				if t0.After(deadline) {
					break
				}
				if !op(w, i) {
					continue
				}
				lat := time.Since(t0)
				for s := 0; s < stride; s++ {
					rec = append(rec, lat)
				}
			}
			lats[w] = rec
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := result{ops: len(all), dur: elapsed}
	if len(all) > 0 {
		res.p50 = all[len(all)/2]
		res.p99 = all[len(all)*99/100]
		res.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(all))
	}
	return res
}

// always adapts an in-process loop body, which panics on any failure,
// to run's answered-call contract.
func always(op func(int, int)) func(int, int) bool {
	return func(w, i int) bool {
		op(w, i)
		return true
	}
}

func main() {
	flag.Parse()
	if *addrFlag != "" {
		netMain(*addrFlag)
		return
	}
	gs := parseList(*gsFlag)
	batches := parseList(*batchesFlag)
	workers := *workersFlag
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if *backendFlag != "" {
		b, err := gf233.ParseBackend(*backendFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eccload:", err)
			os.Exit(2)
		}
		if !gf233.Supported(b) {
			fmt.Fprintf(os.Stderr, "eccload: backend %v not supported on this machine\n", b)
			os.Exit(2)
		}
		gf233.SetBackend(b)
	}

	// Fixed deterministic inputs: one server key, a pool of peer
	// public keys / scalars / digests the goroutines cycle through.
	rnd := rand.New(rand.NewSource(1))
	priv, err := core.GenerateKey(rnd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eccload:", err)
		os.Exit(1)
	}
	const poolSize = 64
	peers := make([]ec.Affine, poolSize)
	scalars := make([]*big.Int, poolSize)
	digests := make([][]byte, poolSize)
	for i := range peers {
		pk, err := core.GenerateKey(rnd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eccload:", err)
			os.Exit(1)
		}
		peers[i] = pk.Public
		scalars[i] = pk.D
		digest := make([]byte, 32)
		rnd.Read(digest)
		digests[i] = digest
	}
	// Signatures over the digest pool (for the verify workload), plus
	// the server key's precomputed verification table — the steady
	// state of a gateway that verifies many signatures per key.
	sigs := make([]*sign.Signature, poolSize)
	for i := range sigs {
		sig, err := sign.SignDeterministic(priv, digests[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "eccload:", err)
			os.Exit(1)
		}
		sigs[i] = sig
	}
	verifyTab := core.NewFixedBase(priv.Public, core.WPrecomp)
	// The engine mode drives the public opaque-key surface; the naive
	// and direct modes stay on the internal packages they measure.
	rpriv, err := repro.NewPrivateKey(priv.D.FillBytes(make([]byte, repro.PrivateKeySize)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "eccload:", err)
		os.Exit(1)
	}
	core.Warm()

	fmt.Printf("eccload: op=%s workers=%d dur=%s GOMAXPROCS=%d backend=%s\n",
		*opFlag, workers, *durFlag, runtime.GOMAXPROCS(0), gf233.CurrentBackend())

	for _, g := range gs {
		var naive result
		if *naiveFlag {
			naive = run(g, *durFlag, 1, always(naiveOp(*opFlag, priv, peers, scalars, digests, sigs, g)))
			fmt.Printf("g=%-3d naive      : %s\n", g, naive)
		}
		report := func(label string, res result) {
			line := fmt.Sprintf("g=%-3d %-11s: %s", g, label, res)
			if *naiveFlag && naive.ops > 0 {
				line += fmt.Sprintf("  speedup=%.2fx", res.opsPerSec()/naive.opsPerSec())
			}
			fmt.Println(line)
		}
		for _, b := range batches {
			// Engine mode: concurrent one-at-a-time submitters, batches
			// form from whatever is in flight. Runs through the public
			// options-based BatchEngine (tables were already warmed
			// above, so skip the eager rewarm).
			e := repro.NewBatchEngine(
				repro.WithMaxBatch(b),
				repro.WithWorkers(workers),
				repro.WithWarmTables(false),
			)
			report(fmt.Sprintf("batch=%d", b),
				run(g, *durFlag, 1, always(engineOp(*opFlag, e, rpriv, peers, scalars, digests, sigs, g))))
			e.Close()
			// Direct mode: each goroutine hands the slice kernel a full
			// batch (the shape of a server that already aggregates
			// requests); no channel hop, pure amortisation.
			if b > 1 {
				report(fmt.Sprintf("direct=%d", b),
					run(g, *durFlag, b, always(directOp(*opFlag, b, priv, verifyTab, peers, scalars, digests, sigs, g))))
			}
		}
	}
}

// directOp returns a loop body that processes a whole batch per call
// through the synchronous slice kernels.
func directOp(op string, b int, priv *core.PrivateKey, verifyTab *core.FixedBase, peers []ec.Affine, scalars []*big.Int, digests [][]byte, sigs []*sign.Signature, g int) func(int, int) {
	switch op {
	case "ecdh":
		outs := make([][]engine.ECDHResult, g)
		batchPeers := make([][]ec.Affine, g)
		for w := 0; w < g; w++ {
			outs[w] = make([]engine.ECDHResult, b)
			batchPeers[w] = make([]ec.Affine, b)
		}
		return func(w, i int) {
			for j := 0; j < b; j++ {
				batchPeers[w][j] = peers[(w+i*b+j)%len(peers)]
			}
			engine.BatchSharedSecret(priv, batchPeers[w], outs[w])
		}
	case "sign":
		rngs := perWorkerRands(g)
		outs := make([][]engine.SignResult, g)
		batchDigests := make([][][]byte, g)
		for w := 0; w < g; w++ {
			outs[w] = make([]engine.SignResult, b)
			batchDigests[w] = make([][]byte, b)
		}
		return func(w, i int) {
			for j := 0; j < b; j++ {
				batchDigests[w][j] = digests[(w+i*b+j)%len(digests)]
			}
			engine.BatchSign(priv, batchDigests[w], rngs[w], outs[w])
		}
	case "verify":
		oks := make([][]bool, g)
		batchPubs := make([][]ec.Affine, g)
		batchTabs := make([][]*core.FixedBase, g)
		batchDigests := make([][][]byte, g)
		batchSigs := make([][]*sign.Signature, g)
		for w := 0; w < g; w++ {
			oks[w] = make([]bool, b)
			batchPubs[w] = make([]ec.Affine, b)
			batchTabs[w] = make([]*core.FixedBase, b)
			batchDigests[w] = make([][]byte, b)
			batchSigs[w] = make([]*sign.Signature, b)
		}
		return func(w, i int) {
			for j := 0; j < b; j++ {
				idx := (w + i*b + j) % len(digests)
				batchPubs[w][j] = priv.Public
				batchTabs[w][j] = verifyTab
				batchDigests[w][j] = digests[idx]
				batchSigs[w][j] = sigs[idx]
			}
			engine.BatchVerifyTables(batchPubs[w], batchTabs[w], batchDigests[w], batchSigs[w], oks[w])
			for j := range oks[w] {
				if !oks[w][j] {
					panic("eccload: batch verify rejected a valid signature")
				}
			}
		}
	case "scalarmult":
		dsts := make([][]ec.Affine, g)
		batchKs := make([][]*big.Int, g)
		batchPs := make([][]ec.Affine, g)
		for w := 0; w < g; w++ {
			dsts[w] = make([]ec.Affine, b)
			batchKs[w] = make([]*big.Int, b)
			batchPs[w] = make([]ec.Affine, b)
		}
		return func(w, i int) {
			for j := 0; j < b; j++ {
				batchKs[w][j] = scalars[(w+i*b+j)%len(scalars)]
				batchPs[w][j] = peers[(w+i*b+j+1)%len(peers)]
			}
			engine.BatchScalarMult(dsts[w], batchKs[w], batchPs[w])
		}
	default:
		fmt.Fprintf(os.Stderr, "eccload: unknown op %q\n", op)
		os.Exit(2)
		return nil
	}
}

// naiveOp returns the per-goroutine one-shot loop body. For verify the
// naive baseline is the SEED verifier (sign.VerifySeparate): two
// disjoint scalar multiplications with per-call allocations — the
// implementation this library shipped before the joint ladder.
func naiveOp(op string, priv *core.PrivateKey, peers []ec.Affine, scalars []*big.Int, digests [][]byte, sigs []*sign.Signature, g int) func(int, int) {
	switch op {
	case "ecdh":
		return func(w, i int) {
			if _, err := ecdh.SharedSecret(priv, peers[(w+i)%len(peers)]); err != nil {
				panic(err)
			}
		}
	case "sign":
		rngs := perWorkerRands(g)
		return func(w, i int) {
			if _, err := sign.Sign(priv, digests[(w+i)%len(digests)], rngs[w]); err != nil {
				panic(err)
			}
		}
	case "verify":
		return func(w, i int) {
			idx := (w + i) % len(digests)
			if !sign.VerifySeparate(priv.Public, digests[idx], sigs[idx]) {
				panic("eccload: naive verify rejected a valid signature")
			}
		}
	case "scalarmult":
		return func(w, i int) {
			core.ScalarMult(scalars[(w+i)%len(scalars)], peers[(w+i+1)%len(peers)])
		}
	default:
		fmt.Fprintf(os.Stderr, "eccload: unknown op %q\n", op)
		os.Exit(2)
		return nil
	}
}

// engineOp returns the per-goroutine engine loop body, driving the
// public BatchEngine surface.
func engineOp(op string, e *repro.BatchEngine, priv *repro.PrivateKey, peers []ec.Affine, scalars []*big.Int, digests [][]byte, sigs []*sign.Signature, g int) func(int, int) {
	switch op {
	case "ecdh":
		bufs := make([][]byte, g)
		for i := range bufs {
			bufs[i] = make([]byte, 0, repro.SharedSecretSize)
		}
		return func(w, i int) {
			if _, err := e.SharedSecretAppend(bufs[w], priv, peers[(w+i)%len(peers)]); err != nil {
				panic(err)
			}
		}
	case "sign":
		rngs := perWorkerRands(g)
		sigs := make([]repro.Signature, g)
		return func(w, i int) {
			if err := e.SignInto(&sigs[w], priv, digests[(w+i)%len(digests)], rngs[w]); err != nil {
				panic(err)
			}
		}
	case "verify":
		pub := priv.PublicKey()
		pub.Precompute()
		return func(w, i int) {
			idx := (w + i) % len(digests)
			if ok, err := e.VerifyKey(pub, digests[idx], sigs[idx]); err != nil || !ok {
				panic("eccload: engine verify rejected a valid signature")
			}
		}
	case "scalarmult":
		return func(w, i int) {
			if _, err := e.ScalarMult(scalars[(w+i)%len(scalars)], peers[(w+i+1)%len(peers)]); err != nil {
				panic(err)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "eccload: unknown op %q\n", op)
		os.Exit(2)
		return nil
	}
}

func perWorkerRands(g int) []*rand.Rand {
	rngs := make([]*rand.Rand, g)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(1000 + i)))
	}
	return rngs
}
