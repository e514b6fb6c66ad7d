package repro

// Public surface of the concurrent batch engine (internal/engine): the
// server-side complement to the one-shot calls. A BatchEngine collects
// independent requests from any number of goroutines and executes them
// in batches, amortising the dominant field inversion (and, for
// signing, the mod-n nonce inversion) across the whole batch with
// Montgomery's trick. A batch is whatever is queued when a worker
// looks; no request waits on a timer for others to arrive, so a lone
// request runs at once. The slice helpers below run the same kernel
// synchronously for callers that already hold a batch. See the
// README's "Concurrency and batching" section for the contract, and
// cmd/eccload for a load generator that measures the effect.

import (
	"io"
	"math/big"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sign"
)

// ECDHResult is one BatchSharedSecret outcome.
type ECDHResult = engine.ECDHResult

// SignResult is one BatchSign outcome.
type SignResult = engine.SignResult

// ErrEngineClosed is returned by every BatchEngine submit path once
// Close has been called (or while it is in progress): submissions may
// race a server drain freely and fail cleanly instead of panicking.
var ErrEngineClosed = engine.ErrEngineClosed

// EngineOption configures a BatchEngine at construction
// (NewBatchEngine).
type EngineOption func(*engineOptions)

type engineOptions struct {
	cfg  engine.Config
	warm bool
}

// clampOption folds an option value into [0, max]: negatives select
// the documented default (0), excessive values saturate at the
// engine's hard cap. The engine re-validates at construction, so a
// Config assembled without the options is clamped identically.
func clampOption(n, max int) int {
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}

// WithMaxBatch caps how many requests one worker drains into a single
// batch. Bigger batches amortise the batched inversions further but
// add head-of-line latency when many requests are queued; the cap
// never makes a request wait for a batch to fill. n <= 0 (and the
// default) means 32, past which the inversion share of an op is
// already down in the noise (see cmd/eccload); values beyond the
// engine's hard cap (65536) saturate rather than overflowing queue
// sizing.
func WithMaxBatch(n int) EngineOption {
	return func(o *engineOptions) { o.cfg.MaxBatch = clampOption(n, engine.MaxBatchLimit) }
}

// WithWorkers sets the number of processing goroutines, each with its
// own scratch state. n <= 0 (and the default) means GOMAXPROCS;
// values beyond the engine's hard cap (4096) saturate.
func WithWorkers(n int) EngineOption {
	return func(o *engineOptions) { o.cfg.Workers = clampOption(n, engine.WorkersLimit) }
}

// WithQueueDepth sets the request channel depth. n <= 0 (and the
// default) means 2 · MaxBatch · Workers; values beyond the engine's
// hard cap (262144) saturate.
func WithQueueDepth(n int) EngineOption {
	return func(o *engineOptions) { o.cfg.Queue = clampOption(n, engine.QueueLimit) }
}

// WithBatchObserver registers f to observe every processed batch with
// its size, after the kernel ran and before the batch's submitters
// unblock. f is called from worker goroutines concurrently and must
// be fast and safe for concurrent use (atomic counters, histogram
// buckets) — it is the hook cmd/eccserve's batch-size histogram and
// batches-total counters hang off.
func WithBatchObserver(f func(batchSize int)) EngineOption {
	return func(o *engineOptions) { o.cfg.OnBatch = f }
}

// WithConstTime routes every secret-scalar operation submitted to the
// engine — signing nonces and ECDH — through the constant-time
// evaluators, regardless of whether the submitting key is hardened
// (PrivateKey.Hardened; a hardened key is constant-time on any
// engine). Signatures are byte-identical to the fast path for the
// same nonce stream; hardened signatures skip the batched
// Montgomery-trick nonce inversion (whose shared chain is
// variable-time) in favour of per-request fixed-iteration Fermat
// ladders, so the per-op cost roughly doubles. Verification — public
// inputs only — is unaffected and keeps full batch amortisation. See
// the README's "Hardened mode" section.
func WithConstTime() EngineOption {
	return func(o *engineOptions) { o.cfg.ConstTime = true }
}

// WithWarmTables controls whether the shared precomputation tables
// (generator comb, wTNAF table, recoding caches) are built eagerly at
// construction. The default is true, so a server's first requests do
// not pay table construction; pass false to defer the cost to first
// use (e.g. in tests or short-lived tools).
func WithWarmTables(warm bool) EngineOption {
	return func(o *engineOptions) { o.warm = warm }
}

// BatchEngine batches concurrent ECC requests. All methods are safe
// for concurrent use. Construct with NewBatchEngine and Close when
// done; submissions after (or racing with) Close fail with
// ErrEngineClosed.
type BatchEngine struct {
	e *engine.Engine
}

// NewBatchEngine starts a batch engine, configured by functional
// options (the zero-option call is a good server default: batch cap
// 32, GOMAXPROCS workers, tables warmed eagerly):
//
//	e := repro.NewBatchEngine(repro.WithMaxBatch(32), repro.WithWorkers(8))
//	defer e.Close()
func NewBatchEngine(opts ...EngineOption) *BatchEngine {
	o := engineOptions{warm: true}
	for _, opt := range opts {
		opt(&o)
	}
	o.cfg.SkipWarm = !o.warm
	return &BatchEngine{e: engine.New(o.cfg)}
}

// Close drains in-flight requests and stops the workers. It is
// idempotent, and submissions racing with it fail with
// ErrEngineClosed rather than panicking.
func (b *BatchEngine) Close() { b.e.Close() }

// ScalarMult computes k·P, batched with whatever else is in flight.
// P must lie in the prime-order subgroup (see ValidatePoint). The
// error is non-nil only for engine-lifecycle failures
// (ErrEngineClosed, a recovered batch panic).
func (b *BatchEngine) ScalarMult(k *big.Int, p Point) (Point, error) {
	return b.e.ScalarMult(k, p)
}

// SharedSecret derives the raw ECDH shared secret against the peer
// point, which is validated first.
func (b *BatchEngine) SharedSecret(priv *PrivateKey, peer Point) ([]byte, error) {
	return b.e.SharedSecret(priv.key, peer)
}

// SharedSecretKey is SharedSecret on the opaque key types: the peer
// was already fully validated at construction, and the engine
// re-validates it on the batch path as defense in depth.
func (b *BatchEngine) SharedSecretKey(priv *PrivateKey, peer *PublicKey) ([]byte, error) {
	return b.e.SharedSecret(priv.key, peer.point)
}

// SharedSecretAppend is SharedSecret appending into dst —
// allocation-free in steady state when dst has capacity.
func (b *BatchEngine) SharedSecretAppend(dst []byte, priv *PrivateKey, peer Point) ([]byte, error) {
	return b.e.SharedSecretAppend(dst, priv.key, peer)
}

// nonceSource maps a nil rand to the deterministic HMAC-DRBG, keeping
// the engine's signing contract identical to the one-shot path (where
// nil rand selects SignDeterministic): the engine runs the same
// rejection sampler, so nil-rand engine signatures are byte-identical
// to SignDeterministic's.
func nonceSource(priv *PrivateKey, digest []byte, rand io.Reader) io.Reader {
	if rand != nil {
		return rand
	}
	return sign.DeterministicNonceReader(priv.key, digest)
}

// Sign produces an ECDSA-style signature over digest with nonces from
// rand, batched with whatever else is in flight. A nil rand selects
// the RFC 6979-style deterministic nonce, as in PrivateKey.Sign.
func (b *BatchEngine) Sign(priv *PrivateKey, digest []byte, rand io.Reader) (*Signature, error) {
	return b.e.Sign(priv.key, digest, nonceSource(priv, digest, rand))
}

// SignKey is Sign for the crypto.Signer world: same batched kernel,
// ASN.1 DER output and the same nil-rand-means-deterministic contract
// as PrivateKey.Sign, so a server can swap the one-shot signer for
// the engine without touching its wire format or nonce policy.
func (b *BatchEngine) SignKey(priv *PrivateKey, digest []byte, rand io.Reader) ([]byte, error) {
	sig, err := b.Sign(priv, digest, rand)
	if err != nil {
		return nil, err
	}
	return sig.MarshalASN1()
}

// SignInto is Sign storing into sig, reusing sig.R/S when non-nil.
func (b *BatchEngine) SignInto(sig *Signature, priv *PrivateKey, digest []byte, rand io.Reader) error {
	return b.e.SignInto(sig, priv.key, digest, nonceSource(priv, digest, rand))
}

// Verify reports whether sig is a valid signature over digest for the
// public point, batched with whatever else is in flight: all s⁻¹
// computations in a batch share one Montgomery-trick mod-n inversion,
// and the final projective-to-affine conversions share the batch-wide
// field inversion. Semantics match the one-shot Verify; the error is
// non-nil only for engine-lifecycle failures (ErrEngineClosed, a
// recovered batch panic), never for an invalid signature — that is
// ok == false.
func (b *BatchEngine) Verify(pub Point, digest []byte, sig *Signature) (bool, error) {
	return b.e.Verify(pub, nil, digest, sig)
}

// VerifyKey is Verify on an opaque *PublicKey. If the key carries a
// precomputed verification table (PublicKey.Precompute), the batched
// kernel uses it, dropping the per-verification table build on top of
// the batch amortisations.
func (b *BatchEngine) VerifyKey(pub *PublicKey, digest []byte, sig *Signature) (bool, error) {
	return b.e.Verify(pub.point, pub.verifyTable(), digest, sig)
}

// VerifyRecoverable is Verify with a nonce-point recovery hint (from
// SignRecoverable or RecoverHint): hinted verifications that land in
// the same batch settle through ONE randomised linear-combination
// multi-scalar check instead of one joint ladder each — the per-batch
// aggregation the README's verification-performance section measures.
// A hint >= HintNone (or simply a wrong one) selects the per-request
// path; the verdict is identical to Verify for every (sig, hint) pair,
// and a failing aggregate falls back to per-request ladders so invalid
// signatures are identified individually.
func (b *BatchEngine) VerifyRecoverable(pub Point, digest []byte, sig *Signature, hint byte) (bool, error) {
	return b.e.VerifyRecoverable(pub, nil, digest, sig, hint)
}

// VerifyKeyRecoverable is VerifyRecoverable on an opaque *PublicKey,
// using its cached verification table when Precompute built one.
func (b *BatchEngine) VerifyKeyRecoverable(pub *PublicKey, digest []byte, sig *Signature, hint byte) (bool, error) {
	return b.e.VerifyRecoverable(pub.point, pub.verifyTable(), digest, sig, hint)
}

// BatchScalarMult computes ks[i]·points[i] for all i with one batched
// inversion for the whole slice. Points must lie in the prime-order
// subgroup.
func BatchScalarMult(ks []*big.Int, points []Point) []Point {
	return engine.BatchScalarMult(nil, ks, points)
}

// BatchSharedSecret derives the ECDH shared secret against every peer
// (each validated first) into out, with len(out) == len(peers).
func BatchSharedSecret(priv *PrivateKey, peers []Point, out []ECDHResult) {
	engine.BatchSharedSecret(priv.key, peers, out)
}

// BatchSign signs every digest with nonces from rand into out, with
// len(out) == len(digests). One mod-n inversion serves all nonces. A
// nil rand selects the deterministic nonce per digest (each needs its
// own DRBG seed, so the nil-rand path runs the one-shot deterministic
// signer per entry instead of the batched kernel).
func BatchSign(priv *PrivateKey, digests [][]byte, rand io.Reader, out []SignResult) {
	if rand == nil {
		for i, digest := range digests {
			sig, err := sign.SignDeterministic(priv.key, digest)
			out[i].Err = err
			if err != nil {
				continue
			}
			if out[i].Sig.R == nil {
				out[i].Sig.R = new(big.Int)
			}
			if out[i].Sig.S == nil {
				out[i].Sig.S = new(big.Int)
			}
			out[i].Sig.R.Set(sig.R)
			out[i].Sig.S.Set(sig.S)
		}
		return
	}
	engine.BatchSign(priv.key, digests, rand, out)
}

// BatchVerify reports, for each i, whether sigs[i] is a valid
// signature over digests[i] under pubs[i], writing outcomes into ok
// (len(ok) == len(pubs)). One Montgomery-trick mod-n inversion serves
// every s⁻¹ in the slice and one batched field inversion serves every
// final projective-to-affine conversion. Keys wanting their cached
// wide-window tables on the batched path go through
// BatchEngine.VerifyKey instead.
func BatchVerify(pubs []Point, digests [][]byte, sigs []*Signature, ok []bool) {
	engine.BatchVerify(pubs, digests, sigs, ok)
}

// BatchVerifyRecoverable is BatchVerify with per-entry nonce recovery
// hints (hints may be nil for an all-unhinted batch; entries >=
// HintNone take the per-request path): the hinted entries verify
// through one randomised linear-combination multi-scalar evaluation
// for the whole slice, recovering each nonce point by batched
// compressed-point decompression. Verdicts are identical to
// BatchVerify for every input — on aggregate failure the kernel falls
// back to per-request ladders, identifying invalid signatures
// individually at ~1.3x the plain batch cost, which bounds what an
// attacker can extract by feeding invalid batches.
func BatchVerifyRecoverable(pubs []Point, digests [][]byte, sigs []*Signature, hints []byte, ok []bool) {
	engine.BatchVerifyRecoverable(pubs, nil, digests, sigs, hints, ok)
}

// Warm eagerly builds the shared precomputation tables (generator
// comb, wTNAF table, joint-verification table, recoding caches) so a
// server's first requests do not pay table construction. Idempotent
// and concurrency-safe.
func Warm() { core.Warm() }
