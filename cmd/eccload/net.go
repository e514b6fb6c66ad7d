// Network client mode: -addr points eccload at a running eccserve and
// the sweep drives the wire protocol instead of in-process engines,
// measuring end-to-end ops/s and latency percentiles — protocol
// framing, server batching and all.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/frame"
)

// netFixtures is the deterministic client-side corpus: a pool of
// keypairs (so the server's key-table cache sees a realistic working
// set), raw signatures over a digest pool, and per-key expected ECDH
// secrets derived after the ping handshake.
type netFixtures struct {
	serverPub *repro.PublicKey
	keys      [][]byte            // compressed public keys
	privs     []*repro.PrivateKey // matching private keys
	digests   [][]byte
	sigs      [][]byte     // raw signatures: sigs[i] by keys[i%len(keys)] over digests[i]
	hints     []byte       // nonce-point recovery hint per signature
	secrets   [][]byte     // expected ECDH secret per key against the server
	certs     []*certState // per-worker enrolled identity, nil until the worker enrolls
}

// certState is one worker's ECQV enrollment: established by a live
// TEnroll round trip on the worker's first cert op (reconstructing the
// private key locally and cross-checking it against the extracted
// public key), then exercised with TCertVerify requests over
// presigned digests.
type certState struct {
	cert     []byte
	identity []byte
	sigs     [][]byte // deterministic signatures over fx.digests by the certified key
}

const netKeyPool = 16
const netDigestPool = 64

func buildNetFixtures(serverKey []byte) (*netFixtures, error) {
	serverPub, err := repro.NewPublicKey(serverKey)
	if err != nil {
		return nil, fmt.Errorf("server announced an invalid key: %w", err)
	}
	fx := &netFixtures{serverPub: serverPub}
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < netKeyPool; i++ {
		priv, err := repro.GenerateKey(rnd)
		if err != nil {
			return nil, err
		}
		fx.privs = append(fx.privs, priv)
		fx.keys = append(fx.keys, priv.PublicKey().BytesCompressed())
		secret, err := priv.SharedSecret(serverPub)
		if err != nil {
			return nil, err
		}
		fx.secrets = append(fx.secrets, secret)
	}
	for i := 0; i < netDigestPool; i++ {
		d := make([]byte, 32)
		rnd.Read(d)
		fx.digests = append(fx.digests, d)
		// Deterministic nonce, so the signature bytes match the plain
		// signer's and the hint is free.
		sig, hint, err := repro.SignRecoverable(nil, fx.privs[i%netKeyPool], d)
		if err != nil {
			return nil, err
		}
		fx.sigs = append(fx.sigs, sig.Bytes())
		fx.hints = append(fx.hints, hint)
	}
	return fx, nil
}

// netCounters aggregates outcomes across workers. Overload responses
// are not errors — they are the server's backpressure working — but
// they are not counted as completed ops either. Errors are counted
// per operation so a chaos run reports where the failures landed
// instead of aborting on the first one.
type netCounters struct {
	shed       atomic.Int64
	errs       atomic.Int64
	retries    atomic.Int64 // roundtrip attempts beyond the first
	reconnects atomic.Int64 // successful redials after a connection died

	mu   sync.Mutex
	byOp map[string]int64
}

// fail records one failed operation against its per-op counter. The
// first few failures per op are echoed to stderr; the rest only count
// (a chaos run injecting hundreds of faults should not drown the
// summary line the harness parses).
func (c *netCounters) fail(op string, w int, format string, args ...any) {
	c.errs.Add(1)
	c.mu.Lock()
	if c.byOp == nil {
		c.byOp = make(map[string]int64)
	}
	c.byOp[op]++
	n := c.byOp[op]
	c.mu.Unlock()
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "eccload: worker %d: "+op+": "+format+"\n", append([]any{w}, args...)...)
	}
}

// errsByOp renders the per-op error breakdown in sorted order.
func (c *netCounters) errsByOp() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ops := make([]string, 0, len(c.byOp))
	for op := range c.byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, " %s=%d", op, c.byOp[op])
	}
	return b.String()
}

// accounted reports how many errors the per-op counters explain; the
// summary's unaccounted field is errs minus this, and anything nonzero
// there means the accounting itself is broken.
func (c *netCounters) accounted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, n := range c.byOp {
		t += n
	}
	return t
}

// rconn is a reconnecting framed connection: one worker's wire
// endpoint, retrying failed roundtrips under a capped exponential
// backoff. Any roundtrip error poisons the synchronous id-matching
// contract (a late response could pair with the next request), so the
// connection is closed and redialed rather than reused. Every wire op
// is a pure request/response, so retrying is always safe. Not safe for
// concurrent use — each worker owns its rconn, the same ownership
// shape as the plain conns it replaces.
type rconn struct {
	addr    string
	timeout time.Duration // per-roundtrip deadline
	retries int           // attempts beyond the first
	c       *netCounters

	fc    *frame.Conn // nil when disconnected
	dials int
}

func (r *rconn) dial() error {
	fc, err := dialNet(r.addr)
	if err != nil {
		return err
	}
	if r.timeout > 0 {
		fc.SetRoundtripTimeout(r.timeout)
	}
	r.fc = fc
	r.dials++
	if r.dials > 1 {
		r.c.reconnects.Add(1)
	}
	return nil
}

// roundtrip performs one request/response exchange, redialing and
// retrying on failure. The returned payload is only valid until the
// next roundtrip on this rconn.
func (r *rconn) roundtrip(id uint64, typ byte, segs ...[]byte) (frame.Frame, error) {
	var lastErr error
	backoff := 5 * time.Millisecond
	for attempt := 0; attempt <= r.retries; attempt++ {
		if attempt > 0 {
			r.c.retries.Add(1)
			time.Sleep(backoff)
			backoff = min(2*backoff, 250*time.Millisecond)
		}
		if r.fc == nil {
			if lastErr = r.dial(); lastErr != nil {
				continue
			}
		}
		f, err := r.fc.Roundtrip(id, typ, segs...)
		if err == nil {
			return f, nil
		}
		lastErr = err
		r.fc.Close()
		r.fc = nil
	}
	return frame.Frame{}, lastErr
}

func (r *rconn) close() {
	if r.fc != nil {
		r.fc.Close()
		r.fc = nil
	}
}

// answered classifies one roundtrip: a transport failure or an
// unexpected response type counts as an error, a TOverload as a shed.
// It reports whether f is a TOK answer for the caller to check.
func (c *netCounters) answered(op string, w int, f frame.Frame, err error) bool {
	switch {
	case err != nil:
		c.fail(op, w, "%v", err)
	case f.Type == frame.TOK:
		return true
	case f.Type == frame.TOverload:
		c.shed.Add(1)
	default:
		c.fail(op, w, "response type %#x", f.Type)
	}
	return false
}

// netOp returns the per-goroutine loop body for one wire operation.
// Each worker owns one connection (the synchronous one-in-flight
// client shape); responses are structurally checked on every op and
// cryptographically spot-checked on a sample. The body reports
// whether the server answered correctly.
func netOp(op string, rcs []*rconn, fx *netFixtures, c *netCounters) func(int, int) bool {
	// verdict checks the answer to a verify-style request over a valid
	// signature: it must be TOK carrying the byte 1.
	verdict := func(op string, w int, f frame.Frame, err error, what string) bool {
		if !c.answered(op, w, f, err) {
			return false
		}
		if !bytes.Equal(f.Payload, []byte{1}) {
			c.fail(op, w, "server rejected a valid %s", what)
			return false
		}
		return true
	}
	ping := func(w, i int) bool {
		f, err := rcs[w].roundtrip(uint64(i+1), frame.TPing)
		if !c.answered("ping", w, f, err) {
			return false
		}
		if len(f.Payload) != frame.KeySize {
			c.fail("ping", w, "%d-byte key", len(f.Payload))
			return false
		}
		return true
	}
	sign := func(w, i int) bool {
		d := fx.digests[(w+i)%len(fx.digests)]
		f, err := rcs[w].roundtrip(uint64(i+1), frame.TSign, d)
		if !c.answered("sign", w, f, err) {
			return false
		}
		if len(f.Payload) != frame.SigSize {
			c.fail("sign", w, "%d-byte signature", len(f.Payload))
			return false
		}
		if i%64 == 0 {
			sig, err := repro.ParseSignature(f.Payload)
			if err != nil || !fx.serverPub.Verify(d, sig) {
				c.fail("sign", w, "server signature failed local verification (%v)", err)
				return false
			}
		}
		return true
	}
	verify := func(w, i int) bool {
		idx := (w + i) % len(fx.digests)
		req := frame.AppendVerify(nil, fx.keys[idx%netKeyPool], fx.sigs[idx], fx.digests[idx])
		f, err := rcs[w].roundtrip(uint64(i+1), frame.TVerify, req)
		return verdict("verify", w, f, err, "signature")
	}
	verifyr := func(w, i int) bool {
		idx := (w + i) % len(fx.digests)
		req := frame.AppendVerifyR(nil, fx.hints[idx], fx.keys[idx%netKeyPool], fx.sigs[idx], fx.digests[idx])
		f, err := rcs[w].roundtrip(uint64(i+1), frame.TVerifyR, req)
		return verdict("verifyr", w, f, err, "hinted signature")
	}
	// enroll performs the one-time TEnroll handshake for worker w: send
	// a fresh certificate request, reconstruct the private key from the
	// server's cert+contribution, cross-check it against the extracted
	// public key, and presign the digest pool. Returns nil (without
	// counting an error) on overload, so the next op retries.
	enroll := func(w, i int) *certState {
		identity := []byte(fmt.Sprintf("eccload-worker-%02d", w))
		req, err := repro.RequestCert(rand.New(rand.NewSource(int64(1000+w))), identity)
		if err != nil {
			c.fail("enroll", w, "request: %v", err)
			return nil
		}
		f, err := rcs[w].roundtrip(uint64(i+1), frame.TEnroll, frame.AppendEnroll(nil, req.Bytes(), identity))
		if !c.answered("enroll", w, f, err) {
			return nil
		}
		if len(f.Payload) != frame.CertSize+frame.ContribSize {
			c.fail("enroll", w, "%d-byte response payload", len(f.Payload))
			return nil
		}
		certBytes := append([]byte(nil), f.Payload[:frame.CertSize]...)
		contrib := f.Payload[frame.CertSize:]
		cert, err := repro.ParseCert(certBytes, identity)
		if err != nil {
			c.fail("enroll", w, "server issued an unparsable certificate: %v", err)
			return nil
		}
		priv, err := repro.ReconstructPrivateKey(req, cert, contrib, fx.serverPub)
		if err != nil {
			c.fail("enroll", w, "reconstruct: %v", err)
			return nil
		}
		extracted, err := repro.ExtractPublicKey(cert, fx.serverPub)
		if err != nil || !bytes.Equal(extracted.BytesCompressed(), priv.PublicKey().BytesCompressed()) {
			c.fail("enroll", w, "extracted key disagrees with reconstructed key (%v)", err)
			return nil
		}
		st := &certState{cert: certBytes, identity: identity}
		for _, d := range fx.digests {
			sig, _, err := repro.SignRecoverable(nil, priv, d)
			if err != nil {
				c.fail("enroll", w, "presign: %v", err)
				return nil
			}
			st.sigs = append(st.sigs, sig.Bytes())
		}
		return st
	}
	cert := func(w, i int) bool {
		st := fx.certs[w]
		if st == nil {
			if st = enroll(w, i); st == nil {
				return false
			}
			fx.certs[w] = st
		}
		idx := (w + i) % len(fx.digests)
		req := frame.AppendCertVerify(nil, st.cert, st.identity, st.sigs[idx], fx.digests[idx])
		f, err := rcs[w].roundtrip(uint64(i+1), frame.TCertVerify, req)
		return verdict("certverify", w, f, err, "certified signature")
	}
	ecdh := func(w, i int) bool {
		k := (w + i) % netKeyPool
		f, err := rcs[w].roundtrip(uint64(i+1), frame.TECDH, fx.keys[k])
		if !c.answered("ecdh", w, f, err) {
			return false
		}
		if !bytes.Equal(f.Payload, fx.secrets[k]) {
			c.fail("ecdh", w, "secret mismatch")
			return false
		}
		return true
	}
	switch op {
	case "ping":
		return ping
	case "sign":
		return sign
	case "verify":
		return verify
	case "verifyr":
		return verifyr
	case "ecdh":
		return ecdh
	case "cert":
		return cert
	case "mixed":
		return func(w, i int) bool {
			switch i % 5 {
			case 0:
				return sign(w, i)
			case 1:
				return verify(w, i)
			case 2:
				return verifyr(w, i)
			case 3:
				return cert(w, i)
			default:
				return ecdh(w, i)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "eccload: unknown network op %q (want ping, sign, verify, verifyr, ecdh, cert or mixed)\n", op)
		os.Exit(2)
		return nil
	}
}

// netMain is the -addr entry point: sweep goroutine counts against a
// live server and report end-to-end throughput and latency.
func netMain(addr string) {
	gs := parseList(*gsFlag)
	maxG := 0
	for _, g := range gs {
		if g > maxG {
			maxG = g
		}
	}

	c := &netCounters{}
	newRconn := func() *rconn {
		return &rconn{addr: addr, timeout: *netTimeoutFlag, retries: *retriesFlag, c: c}
	}

	// Handshake on a throwaway connection: fetch the server identity
	// the fixtures are built against. The retry machinery applies here
	// too (a chaos-mode server may fault the very first exchange), but
	// without the identity nothing downstream can run, so exhausting the
	// handshake retries is still fatal.
	hc := newRconn()
	f, err := hc.roundtrip(1, frame.TPing)
	if err != nil || f.Type != frame.TOK {
		fmt.Fprintf(os.Stderr, "eccload: ping handshake failed (type %#x, err %v)\n", f.Type, err)
		os.Exit(1)
	}
	fx, err := buildNetFixtures(f.Payload)
	hc.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eccload:", err)
		os.Exit(1)
	}
	fx.certs = make([]*certState, maxG)

	// Workers dial lazily on their first roundtrip: a dial refused at
	// the server's connection cap is a counted, retried error like any
	// other, not a startup abort.
	rcs := make([]*rconn, maxG)
	for i := range rcs {
		rcs[i] = newRconn()
		defer rcs[i].close()
	}

	fmt.Printf("eccload: net addr=%s op=%s dur=%s GOMAXPROCS=%d timeout=%v retries=%d\n",
		addr, *opFlag, *durFlag, runtime.GOMAXPROCS(0), *netTimeoutFlag, *retriesFlag)
	var totalOps int
	for _, g := range gs {
		res := run(g, *durFlag, 1, netOp(*opFlag, rcs, fx, c))
		totalOps += res.ops
		fmt.Printf("g=%-3d net        : %s\n", g, res)
	}
	errs := c.errs.Load()
	unaccounted := errs - c.accounted()
	fmt.Printf("eccload-net: ops=%d shed=%d errors=%d retries=%d reconnects=%d unaccounted=%d\n",
		totalOps, c.shed.Load(), errs, c.retries.Load(), c.reconnects.Load(), unaccounted)
	if errs > 0 {
		fmt.Printf("eccload-net: errors by op:%s\n", c.errsByOp())
	}
	if errs > int64(*errBudgetFlag) || unaccounted != 0 {
		os.Exit(1)
	}
}

func dialNet(addr string) (*frame.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return frame.NewConn(nc), nil
}
