# Tier-1 verification and CI entry points.
#
#   make ci      - everything a pre-merge check runs, a superset of the
#                  tier-1 `go build ./... && go test ./...`: build, vet,
#                  race-enabled tests (including the 32-goroutine
#                  concurrency tests in internal/engine and
#                  internal/core), the same unit-test set a second time
#                  pinned to GF233_BACKEND=64 (so the non-CLMUL fallback
#                  path can never rot on CLMUL machines), a short
#                  differential-fuzz smoke of the 64-bit and CLMUL field
#                  backends and the batched inversion, and the
#                  zero-alloc guards (which must run WITHOUT -race,
#                  hence the separate pass)
#   make api     - the public-surface guards: the exported-API golden
#                  test and interface-conformance checks, the wire-format
#                  KATs, and a fuzz smoke of the two hostile-input
#                  parsers (ParseSignatureDER, NewPublicKey)
#   make bench   - the backend-tagged host benchmarks (Mul/Sqr/Inv,
#                  ScalarMult, ScalarBaseMult, GenerateKey) plus the
#                  batch-engine benchmarks (Validate, ECDH, Sign,
#                  Verify/BatchVerify, InvBatch64)
#   make bench-verify - deterministic refresh of BENCH_verify.json:
#                  reruns the verification benchmark ladder (one-shot
#                  algorithms, batched joint kernel, hinted
#                  linear-combination kernel) and rewrites the JSON
#   make bench-ecqv - deterministic refresh of BENCH_ecqv.json: reruns
#                  the ECQV benchmarks (issuance, one-shot extraction,
#                  batched extraction) and checks the >= 2x batch=32
#                  amortisation gate
#   make bench-sign - deterministic refresh of BENCH_sign.json: reruns
#                  the signing benchmarks (fast and hardened, one-shot
#                  and batch=32) and checks the <= 3x hardened-vs-fast
#                  overhead gate
#   make ct      - the side-channel regression harness: the armv6m
#                  trace-equality tests (the constant-time ladder must
#                  produce identical instruction and data-address
#                  traces for different secrets, and the paper's
#                  variable-time path must NOT), the hardened
#                  differential and scrub tests, and the dudect timing
#                  smoke (Welch's t on hardened Sign/ECDH). CT_FULL=1
#                  runs the full-strength dudect pass (30k samples,
#                  |t| < 4.5) plus the detector self-validation
#   make chaos   - the seeded fault-injection suite: the internal/fault
#                  unit tests, the eccserve chaos integration tests
#                  (five scripted fault shapes under mixed traffic,
#                  drain-under-stall, the stalled-writer inflight-slot
#                  regression, max-conns handshake rejects, injected
#                  accept errors) and the frame-level deadline tests,
#                  all with -race and a goroutine-leak check
#   make load    - a quick eccload sweep of the batch engine
#   make serve-smoke - end-to-end check of the serving stack: boots
#                  eccserve with its defaults on a loopback port, drives
#                  it with eccload's network mode (a mixed run and a
#                  certificate run), asserts non-zero throughput with
#                  zero sheds/errors and a clean SIGTERM drain, then
#                  repeats under seeded fault injection (-fault-rate)
#                  and requires every client failure to be accounted

GO ?= go

.PHONY: all build vet test test64 race fuzz alloc api bench bench-verify bench-ecqv bench-sign ct chaos load serve-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The same unit-test set forced onto the portable 64-bit backend. On
# CLMUL hardware the default run exercises BackendCLMUL everywhere, so
# this second pass is what keeps the fallback path (and the
# GF233_BACKEND env override itself) from rotting. -count=1 is load-
# bearing: the env var is consumed in package init, which the go test
# cache does not key on, so a cached default-backend result would
# otherwise satisfy this run without executing the fallback at all.
test64:
	GF233_BACKEND=64 $(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test ./internal/gf233 -run='^$$' -fuzz=FuzzMul64VsRef -fuzztime=10s
	$(GO) test ./internal/gf233 -run='^$$' -fuzz=FuzzSqrInv64VsRef -fuzztime=10s
	$(GO) test ./internal/gf233 -run='^$$' -fuzz=FuzzMulClmulVsRef -fuzztime=10s
	$(GO) test ./internal/gf233 -run='^$$' -fuzz=FuzzSqrInvClmulVsRef -fuzztime=10s
	$(GO) test ./internal/gf233 -run='^$$' -fuzz=FuzzBatchInvVsSequential -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzJointScalarMultVsSeparate -fuzztime=10s
	$(GO) test ./internal/engine -run='^$$' -fuzz=FuzzMultiScalarVsJoint -fuzztime=10s
	$(GO) test . -run='^$$' -fuzz=FuzzParseCert -fuzztime=10s
	$(GO) test . -run='^$$' -fuzz=FuzzParsePEM -fuzztime=10s

# Zero-alloc guards: AllocsPerRun is meaningless under -race (the
# detector allocates), so these run in their own non-race pass.
alloc:
	$(GO) test ./internal/engine ./internal/gf233 -run 'TestZeroAlloc' -count=1

# Public-surface guards: the exported-API golden test (regenerate with
# -update-api after an intentional change), interface conformance, the
# pinned DER/raw wire encodings, and a short fuzz smoke of the two
# hostile-input parsers.
api:
	$(GO) test . -run 'TestExportedAPIGolden|TestInterfaceConformance|TestWireSizeConstants' -count=1
	$(GO) test ./internal/litdata -run 'TestECDSAWireKnownAnswers' -count=1
	$(GO) test . -run='^$$' -fuzz=FuzzParseSignatureDER -fuzztime=5s
	$(GO) test . -run='^$$' -fuzz=FuzzNewPublicKey -fuzztime=5s

bench:
	$(GO) test -run='^$$' -bench='Mul$$|Sqr$$|Inv$$|ScalarMult$$|ScalarBaseMult$$|GenerateKey$$|Validate$$|ECDH$$|Sign$$|Verify$$|InvBatch64$$' -benchtime=1s .

bench-verify:
	GO="$(GO)" sh scripts/bench_verify.sh

bench-ecqv:
	GO="$(GO)" sh scripts/bench_ecqv.sh

bench-sign:
	GO="$(GO)" sh scripts/bench_sign.sh

# Side-channel regression harness. Three legs, cheapest proof first:
# the armv6m trace checker (exact instruction- and data-address trace
# equality across secrets on the simulated M0+ — and trace INEQUALITY
# for the paper's variable-time path, so the detector itself is
# validated), the differential tests pinning every hardened output
# byte-identical to the fast path, and the dudect timing smoke on the
# host. -count=1 for the timing leg: a cached verdict about an old
# binary is worthless. CT_FULL=1 escalates dudect to 30k samples with
# the conventional |t| < 4.5 gate.
ct:
	$(GO) test ./internal/codegen -run 'TestCTLadder|TestPointMulTracesDiffer' -count=1
	$(GO) test ./internal/koblitz -run 'TestRecodeCT' -count=1
	$(GO) test ./internal/core -run 'CT' -count=1
	$(GO) test . -run 'TestHardened' -count=1
	$(GO) test ./internal/engine -run 'TestBatchScratchScrubbed' -count=1
	$(GO) test ./internal/dudect -count=1 -v -run 'TestDudect'

# Seeded fault-injection suite. -count=1 because the chaos tests drive
# real loopback sockets and timers; a cached pass proves nothing about
# the current binary's lifecycle handling.
chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 ./cmd/eccserve \
	    -run 'TestChaos|TestDrainTimeout|TestStalledWriter|TestMaxConns'
	$(GO) test -race -count=1 ./cmd/eccload -run 'TestRconn'
	$(GO) test -race -count=1 ./internal/frame \
	    -run 'TestWriteStall|TestRoundtripTimeout|TestReadIdleTimeout'

load:
	$(GO) run ./cmd/eccload -op ecdh -gs 1,8 -batches 1,32 -dur 2s

serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

ci: build vet race test64 fuzz alloc api ct chaos serve-smoke
