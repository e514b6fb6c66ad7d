// Command perfbench-layers is the in-process half of a traced
// perfbench run: it regenerates the run's inputs from the same seed
// and times each layer's public entry points on them, one span per
// timed repetition, from the engine front end down to the field. It
// prints a report and, as its last line, a JSON object of per-layer
// metrics; perfbench merges that into the traced run's result.
//
// It imports internal packages, so it is built only for traced runs:
// an internal API change can break the layer replay, never the
// end-to-end measurement.
package main

import (
	"bufio"
	crand "crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/ecqv"
	"repro/internal/engine"
	"repro/internal/gf233"
	"repro/internal/koblitz"
	"repro/internal/sign"
	"repro/perfbench/inputs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one timed region; parent names the enclosing layer.
type span struct {
	name, parent string
	start, end   time.Duration // since the replay started
}

type replay struct {
	t0      time.Time
	spans   []span
	metrics map[string]metric
	wrong   int
}

// Sinks keep the compiler from dropping timed calls.
var (
	sinkAffine ec.Affine
	sinkElem   gf233.Elem64
	sinkAny    any
)

func main() {
	var (
		name        = flag.String("workload", "", "workload whose mix the engine replay runs")
		seed        = flag.Uint64("seed", 1, "workload seed")
		outstanding = flag.Int("outstanding", 128, "requests in flight in the engine sat replay")
		traceOut    = flag.String("trace-out", "", "write the layer spans to this file")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := run(*name, *seed, *outstanding, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench-layers: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, outstanding int, traceOut string) error {
	sets := map[string]*inputs.Set{}
	for _, w := range []string{inputs.SignSolo, inputs.GatewayVerify, inputs.FleetChurn} {
		s, err := inputs.Generate(w, seed)
		if err != nil {
			return err
		}
		sets[w] = s
	}
	own, ok := sets[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	op := newOps(own)
	r := &replay{t0: time.Now(), metrics: map[string]metric{}}
	r.engineMix(own, op, outstanding)
	r.kernels(sets)
	if err := r.layers(sets); err != nil {
		return err
	}
	if r.wrong > 0 {
		return fmt.Errorf("%d wrong answers in the engine replay", r.wrong)
	}
	if traceOut != "" {
		if err := r.writeSpans(traceOut); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r.metrics)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// ops holds the parsed operands of one workload's requests, built
// before anything is timed.
type ops struct {
	set       *inputs.Set
	serverKey *repro.PrivateKey
	ca        *repro.CA
	sensors   []*repro.PublicKey // precomputed, like a warm key cache
	peers     []*repro.PublicKey
}

func newOps(own *inputs.Set) *ops {
	o := &ops{set: own, serverKey: own.ServerKey, ca: repro.NewCA(own.ServerKey)}
	for _, k := range own.Sensors {
		pub := k.PublicKey()
		pub.Precompute()
		o.sensors = append(o.sensors, pub)
	}
	for _, k := range own.Peers {
		o.peers = append(o.peers, k.PublicKey())
	}
	return o
}

// do runs request q of the workload's pool through engine e as eccserve
// would, and reports whether the answer is right. Cert-verifies take
// the key-cache miss path (extract, build the table, verify).
func (o *ops) do(e *repro.BatchEngine, q *inputs.Request) bool {
	s := o.set
	switch q.Kind {
	case inputs.Sign:
		sig, err := e.Sign(o.serverKey, q.Digest, crand.Reader)
		return err == nil && s.ServerPub.Verify(q.Digest, sig)
	case inputs.Verify, inputs.VerifyR:
		en := &s.Entries[q.Ref]
		var ok bool
		var err error
		if q.Kind == inputs.VerifyR {
			ok, err = e.VerifyKeyRecoverable(o.sensors[en.Key], en.Digest, en.Sig, en.Hint)
		} else {
			ok, err = e.VerifyKey(o.sensors[en.Key], en.Digest, en.Sig)
		}
		return err == nil && ok == !en.Bad
	case inputs.CertVerify:
		d := &s.Fleet[q.Ref]
		pub, err := e.ExtractPublicKey(d.Cert, s.ServerPub)
		if err != nil {
			return false
		}
		pub.Precompute()
		ok, err := e.VerifyKey(pub, d.Digest, d.Sig)
		return err == nil && ok
	case inputs.Enroll:
		req := s.Enrolls[q.Ref]
		cert, _, err := o.ca.Issue(req.Bytes(), req.Identity(), crand.Reader)
		if err != nil {
			return false
		}
		pub, err := e.ExtractPublicKey(cert, s.ServerPub)
		if err != nil {
			return false
		}
		pub.Precompute()
		return true
	case inputs.ECDH:
		secret, err := e.SharedSecretKey(o.serverKey, o.peers[q.Ref])
		return err == nil && string(secret) == string(q.Secret)
	}
	return false
}

// engineMix replays the workload's own mix through a default engine:
// one request in flight (the floor under solo latency), then as many
// in flight as the sat phase keeps (the ceiling on sat throughput).
func (r *replay) engineMix(set *inputs.Set, o *ops, outstanding int) {
	var batches, batchOps atomic.Int64
	e := repro.NewBatchEngine(repro.WithBatchObserver(func(n int) {
		batches.Add(1)
		batchOps.Add(int64(n))
	}))
	defer e.Close()
	pool := set.Pool

	var lats []float64
	stop := time.Now().Add(time.Second)
	for i := 0; time.Now().Before(stop) || i < 100; i++ {
		q := &pool[i%len(pool)]
		t := r.now()
		if !o.do(e, q) {
			r.wrong++
		}
		end := r.now()
		r.spans = append(r.spans, span{"engine.solo." + q.Kind.String(), "engine.solo", t, end})
		lats = append(lats, float64(end-t)/1e3)
	}
	r.put("engine.solo_p50_us", median(lats), "us")

	batches.Store(0)
	batchOps.Store(0)
	var done, wrong atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t := r.now()
	window := 1500 * time.Millisecond
	stop = time.Now().Add(window)
	for g := 0; g < outstanding; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var local []span
			for i := g * 37; time.Now().Before(stop); i++ {
				q := &pool[i%len(pool)]
				s := r.now()
				if !o.do(e, q) {
					wrong.Add(1)
				}
				local = append(local, span{"engine.sat." + q.Kind.String(), "engine.sat", s, r.now()})
				done.Add(1)
			}
			mu.Lock()
			r.spans = append(r.spans, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	elapsed := r.now() - t
	r.wrong += int(wrong.Load())
	r.spans = append(r.spans, span{"engine.sat", "", t, t + elapsed})
	r.put("engine.sat_ops_s", float64(done.Load())/elapsed.Seconds(), "1/s")
	r.put("engine.batch_mean.sat", float64(batchOps.Load())/float64(max(batches.Load(), 1)), "count")
}

func (r *replay) now() time.Duration { return time.Since(r.t0) }

func (r *replay) put(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
	fmt.Printf("layer %-32s %12.3f %s\n", name, v, unit)
}

// timeReps calls f (which does n operations) repeatedly for about
// budget, one span per call, and returns the median ns per operation
// and the heap allocations per operation.
func (r *replay) timeReps(name, parent string, n int, budget time.Duration, f func()) (nsPerOp, allocsPerOp float64) {
	f() // warm caches and pools
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	stop := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(stop) {
		t := r.now()
		f()
		end := r.now()
		r.spans = append(r.spans, span{name, parent, t, end})
		per = append(per, float64(end-t)/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(len(per)*n)
}

func corePriv(k *repro.PrivateKey) *core.PrivateKey {
	p, err := core.NewPrivateKey(new(big.Int).SetBytes(k.Bytes()))
	if err != nil {
		panic(err) // a key repro accepted is a valid scalar
	}
	return p
}

// kernels times the engine's batch kernels at batch 1 and 32.
func (r *replay) kernels(sets map[string]*inputs.Set) {
	const budget = 300 * time.Millisecond
	sg, gw, fl := sets[inputs.SignSolo], sets[inputs.GatewayVerify], sets[inputs.FleetChurn]

	priv := corePriv(sg.ServerKey)
	out := make([]engine.SignResult, 32)
	for _, n := range []int{1, 32} {
		ns, allocs := r.timeReps(fmt.Sprintf("engine.sign.b%d", n), "engine", n, budget, func() {
			engine.BatchSign(priv, sg.Digests[:n], crand.Reader, out[:n])
		})
		r.put(fmt.Sprintf("engine.sign_us.b%d", n), ns/1e3, "us")
		r.put(fmt.Sprintf("engine.sign_allocs.b%d", n), allocs, "count")
	}

	// 32 valid gateway entries, and the same with one corrupted.
	var good, bad []inputs.Entry
	for _, e := range gw.Entries {
		if !e.Bad && len(good) < 32 {
			good = append(good, e)
		}
		if e.Bad && len(bad) == 0 {
			bad = append(bad, e)
		}
	}
	bad = append(bad, good[1:]...)
	fbs := make([]*core.FixedBase, inputs.NumSensors)
	for i, k := range gw.Sensors {
		fbs[i] = core.NewFixedBase(k.PublicKey().Point(), core.WPrecomp)
	}
	type vin struct {
		pubs    []ec.Affine
		fbs     []*core.FixedBase
		digests [][]byte
		sigs    []*sign.Signature
		hints   []byte
	}
	mk := func(es []inputs.Entry) vin {
		var v vin
		for _, e := range es {
			v.pubs = append(v.pubs, gw.Sensors[e.Key].PublicKey().Point())
			v.fbs = append(v.fbs, fbs[e.Key])
			v.digests = append(v.digests, e.Digest)
			v.sigs = append(v.sigs, e.Sig)
			v.hints = append(v.hints, e.Hint)
		}
		return v
	}
	vg, vb := mk(good), mk(bad)
	okv := make([]bool, 32)
	check := func(es []inputs.Entry, n int) {
		for i := 0; i < n; i++ {
			if okv[i] == es[i].Bad {
				r.wrong++
			}
		}
	}
	for _, n := range []int{1, 32} {
		ns, allocs := r.timeReps(fmt.Sprintf("engine.verify.b%d", n), "engine", n, budget, func() {
			engine.BatchVerifyTables(vg.pubs[:n], vg.fbs[:n], vg.digests[:n], vg.sigs[:n], okv[:n])
		})
		check(good, n)
		r.put(fmt.Sprintf("engine.verify_us.b%d", n), ns/1e3, "us")
		r.put(fmt.Sprintf("engine.verify_allocs.b%d", n), allocs, "count")
	}
	for _, c := range []struct {
		name string
		v    vin
		es   []inputs.Entry
	}{{"verifyr", vg, good}, {"verifyr_bad", vb, bad}} {
		ns, allocs := r.timeReps("engine."+c.name+".b32", "engine", 32, budget, func() {
			engine.BatchVerifyRecoverable(c.v.pubs, c.v.fbs, c.v.digests, c.v.sigs, c.v.hints, okv)
		})
		check(c.es, 32)
		r.put("engine."+c.name+"_us.b32", ns/1e3, "us")
		r.put("engine."+c.name+"_allocs.b32", allocs, "count")
	}

	ca := fl.ServerPub.Point()
	var certs []ec.Affine
	var cdig [][]byte
	for _, d := range fl.Fleet[:32] {
		c, err := ecqv.ParseCert(d.Cert.Bytes(), d.Identity)
		if err != nil {
			panic(err) // generated by the same library a moment ago
		}
		dg := c.Digest(ca)
		certs, cdig = append(certs, c.Point), append(cdig, dg[:])
	}
	ext := make([]engine.ExtractResult, 32)
	ns, allocs := r.timeReps("engine.extract.b32", "engine", 32, budget, func() {
		engine.BatchExtract(certs, ca, cdig, ext)
	})
	for i, x := range ext {
		if x.Err != nil || !x.Pub.Equal(fl.Fleet[i].Priv.PublicKey().Point()) {
			r.wrong++
		}
	}
	r.put("engine.extract_us.b32", ns/1e3, "us")
	r.put("engine.extract_allocs.b32", allocs, "count")

	fpriv := corePriv(fl.ServerKey)
	var peers []ec.Affine
	for _, p := range fl.Peers[:32] {
		peers = append(peers, p.PublicKey().Point())
	}
	sec := make([]engine.ECDHResult, 32)
	ns, allocs = r.timeReps("engine.ecdh.b32", "engine", 32, budget, func() {
		engine.BatchSharedSecret(fpriv, peers, sec)
	})
	for i, s := range sec {
		want, _ := fl.Peers[i].SharedSecret(fl.ServerPub)
		if s.Err != nil || string(s.Secret[:]) != string(want) {
			r.wrong++
		}
	}
	r.put("engine.ecdh_us.b32", ns/1e3, "us")
	r.put("engine.ecdh_allocs.b32", allocs, "count")
}

// layers times the protocol, curve, recoding and field entry points
// below the engine, one at a time.
func (r *replay) layers(sets map[string]*inputs.Set) error {
	const budget = 250 * time.Millisecond
	sg, fl := sets[inputs.SignSolo], sets[inputs.FleetChurn]
	priv := corePriv(sg.ServerKey)
	digest := sg.Digests[0]

	ns, allocs := r.timeReps("sign.oneshot", "sign", 1, budget, func() {
		sig, err := sign.Sign(priv, digest, crand.Reader)
		sinkAny = sig
		if err != nil {
			r.wrong++
		}
	})
	r.put("sign.oneshot_us", ns/1e3, "us")
	r.put("sign.allocs_per_op", allocs, "count")

	ca := ecqv.NewCA(corePriv(fl.ServerKey))
	req := fl.Enrolls[0]
	reqPoint, err := repro.DecodePoint(req.Bytes())
	if err != nil {
		return fmt.Errorf("enroll request point: %w", err)
	}
	ns, _ = r.timeReps("ecqv.issue", "ecqv", 1, budget, func() {
		c, _, err := ca.Issue(reqPoint, req.Identity(), crand.Reader)
		sinkAny = c
		if err != nil {
			r.wrong++
		}
	})
	r.put("ecqv.issue_us", ns/1e3, "us")

	peer := fl.Peers[0].PublicKey().Point()
	ns, _ = r.timeReps("ecdh.validate", "ecdh", 16, budget, func() {
		for i := 0; i < 16; i++ {
			if ecdh.ValidateTau(peer) != nil {
				r.wrong++
			}
		}
	})
	r.put("ecdh.validate_us", ns/1e3, "us")

	// Scalars from the sign digests, reduced mod the group order.
	ks := make([]*big.Int, 64)
	for i := range ks {
		ks[i] = new(big.Int).Mod(new(big.Int).SetBytes(sg.Digests[i]), repro.Order())
	}
	q := fl.Peers[1].PublicKey().Point()
	ns, _ = r.timeReps("core.precompute", "core", 1, budget, func() {
		sinkAny = core.NewFixedBase(q, core.WPrecomp)
	})
	r.put("core.precompute_us", ns/1e3, "us")
	i := 0
	next := func() *big.Int { i++; return ks[i%len(ks)] }
	ns, _ = r.timeReps("core.comb_kG", "core", 1, budget, func() { sinkAffine = core.ScalarBaseMult(next()) })
	r.put("core.comb_kG_us", ns/1e3, "us")
	fb := core.NewFixedBase(q, core.WPrecomp)
	ns, _ = r.timeReps("core.joint", "core", 1, budget, func() {
		sinkAffine = core.JointScalarMultFixed(next(), next(), fb)
	})
	r.put("core.joint_us", ns/1e3, "us")
	ns, _ = r.timeReps("core.kP", "core", 1, budget, func() { sinkAffine = core.ScalarMult(next(), q) })
	r.put("core.kP_us", ns/1e3, "us")

	var rec koblitz.Scratch
	ns, allocs = r.timeReps("koblitz.recode", "koblitz", 1, budget, func() { sinkAny = rec.Recode(next(), core.WRandom) })
	r.put("koblitz.recode_us", ns/1e3, "us")
	r.put("koblitz.recode_allocs", allocs, "count")
	ns, _ = r.timeReps("koblitz.recode_wide", "koblitz", 1, budget, func() { sinkAny = rec.RecodeWide(next(), core.WJoint) })
	r.put("koblitz.recode_wide_us", ns/1e3, "us")

	// Field operands from the digests too.
	els := make([]gf233.Elem64, 32)
	for j := range els {
		var b [gf233.ByteLen]byte
		copy(b[:], sg.Digests[j])
		b[0] &= 1 // keep the top bits below the field degree
		e, ok := gf233.FromBytes(b)
		if !ok || e.IsZero() {
			return fmt.Errorf("field operand %d out of range", j)
		}
		els[j] = gf233.ToElem64(e)
	}
	const inner = 4096
	a, b := els[0], els[1]
	ns, _ = r.timeReps("gf233.mul", "gf233", inner, budget, func() {
		x := a
		for j := 0; j < inner; j++ {
			x = gf233.Mul64(x, b)
		}
		sinkElem = x
	})
	r.put("gf233.mul_ns", ns, "ns")
	ns, _ = r.timeReps("gf233.sqr", "gf233", inner, budget, func() {
		x := a
		for j := 0; j < inner; j++ {
			x = gf233.Sqr64(x)
		}
		sinkElem = x
	})
	r.put("gf233.sqr_ns", ns, "ns")
	ns, _ = r.timeReps("gf233.inv", "gf233", 64, budget, func() {
		x := a.Elem()
		for j := 0; j < 64; j++ {
			x, _ = gf233.Inv(x)
		}
		sinkElem = gf233.ToElem64(x)
	})
	r.put("gf233.inv_ns", ns, "ns")
	buf, scratch := make([]gf233.Elem64, 32), make([]gf233.Elem64, 32)
	ns, _ = r.timeReps("gf233.invbatch32", "gf233", 16, budget, func() {
		for j := 0; j < 16; j++ {
			copy(buf, els)
			gf233.InvBatch64(buf, scratch)
		}
		sinkElem = buf[0]
	})
	r.put("gf233.invbatch32_ns", ns, "ns")
	return nil
}

func (r *replay) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# perfbench layer spans: <name> <parent> <start_ns> <end_ns> (since the replay started)")
	for _, s := range r.spans {
		parent := s.parent
		if parent == "" {
			parent = "-"
		}
		fmt.Fprintf(w, "%s %s %d %d\n", s.name, parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
