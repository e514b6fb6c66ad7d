// Package inputs builds every request a perfbench run sends, and the
// answer each one must get, from the workload seed alone. The same
// seed gives byte-identical requests, so two runs (or two commits)
// see the same traffic, and the in-process layer replay sees the same
// operands as the wire.
package inputs

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"repro"
	"repro/internal/frame"
)

// Kind is a request operation.
type Kind uint8

const (
	Sign Kind = iota
	Verify
	VerifyR
	CertVerify
	Enroll
	ECDH
	NumKinds
)

var kindNames = [NumKinds]string{"sign", "verify", "verifyr", "certverify", "enroll", "ecdh"}

func (k Kind) String() string { return kindNames[k] }

// Request is one pre-built wire request and what its answer must be.
type Request struct {
	Kind    Kind
	Type    byte // frame request type
	Payload []byte
	// Bad marks a corrupted signature: the answer must be "invalid".
	Bad bool
	// Digest is the digest a Sign request asks to have signed.
	Digest []byte
	// Secret is the shared secret an ECDH request must get back.
	Secret []byte
	// CertReq is the enrollment request, kept to reconstruct the
	// issued key after the phase.
	CertReq *repro.CertRequest
	// Ref indexes the operands behind the request: Set.Digests for
	// Sign, Set.Entries for Verify and VerifyR, Set.Fleet for
	// CertVerify, Set.Enrolls for Enroll, Set.Peers for ECDH.
	Ref int
}

// Entry is one pre-signed verification input.
type Entry struct {
	Key    int // index into Set.Sensors
	Digest []byte
	Sig    *repro.Signature
	Hint   byte
	Bad    bool // Digest was altered after signing
}

// Device is one enrolled fleet member.
type Device struct {
	Identity []byte
	Cert     *repro.Cert
	Priv     *repro.PrivateKey
	Digest   []byte
	Sig      *repro.Signature
}

// Set is everything one workload sends.
type Set struct {
	ServerKey *repro.PrivateKey
	ServerPub *repro.PublicKey

	// Pool is cycled by the load generator; Warm is sent once before
	// timing starts.
	Pool []Request
	Warm []Request

	// The raw operands behind Pool, for the in-process replay.
	Digests [][]byte
	Sensors []*repro.PrivateKey
	Entries []Entry
	Fleet   []Device
	Enrolls []*repro.CertRequest
	Peers   []*repro.PrivateKey
}

// Workload names.
const (
	SignSolo      = "sign-solo"
	GatewayVerify = "gateway-verify"
	FleetChurn    = "fleet-churn"
)

// Sizes of the generated populations.
const (
	PoolSize   = 4096
	NumSensors = 256 // fits the server's key cache
	FleetSize  = 4 * CacheCap
	NumEnrolls = PoolSize / 8 // above the pool's 1 in 10 enrollments
	NumPeers   = 256
	BadEvery   = 100 // one in BadEvery gateway signatures is corrupted
	// CacheCap is eccserve's default key-cache capacity; the fleet is
	// sized against it.
	CacheCap = 1024
)

// KeyHex is the server key file contents for ServerKey.
func (s *Set) KeyHex() string { return hex.EncodeToString(s.ServerKey.Bytes()) + "\n" }

// rng derives an independent deterministic stream for (seed, label,
// index), so items can be generated in parallel and still repeat.
func rng(seed uint64, label string, index int) *rand.ChaCha8 {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], uint64(index))
	copy(key[16:], label)
	return rand.NewChaCha8(key)
}

func digest(r *rand.ChaCha8) []byte {
	d := make([]byte, 32)
	r.Read(d)
	return d
}

// Generate builds the set for one workload.
func Generate(workload string, seed uint64) (*Set, error) {
	srv, err := repro.GenerateKey(rng(seed, "server", 0))
	if err != nil {
		return nil, fmt.Errorf("server key: %w", err)
	}
	s := &Set{ServerKey: srv, ServerPub: srv.PublicKey()}
	switch workload {
	case SignSolo:
		err = s.genSign(seed)
	case GatewayVerify:
		err = s.genGateway(seed)
	case FleetChurn:
		err = s.genFleet(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", workload, err)
	}
	return s, nil
}

func (s *Set) genSign(seed uint64) error {
	r := rng(seed, "sign", 0)
	for i := 0; i < PoolSize; i++ {
		d := digest(r)
		s.Digests = append(s.Digests, d)
		s.Pool = append(s.Pool, Request{Kind: Sign, Type: frame.TSign, Payload: d, Digest: d, Ref: i})
	}
	return nil
}

func (s *Set) genGateway(seed uint64) error {
	s.Sensors = make([]*repro.PrivateKey, NumSensors)
	if err := parallel(NumSensors, func(i int) (err error) {
		s.Sensors[i], err = repro.GenerateKey(rng(seed, "sensor", i))
		return err
	}); err != nil {
		return err
	}
	pick := rng(seed, "gateway", 0)
	badAt := pick.Uint64() % BadEvery
	s.Entries = make([]Entry, PoolSize)
	s.Pool = make([]Request, PoolSize)
	for i := range s.Entries {
		s.Entries[i].Key = int(pick.Uint64() % NumSensors)
		s.Entries[i].Bad = uint64(i)%BadEvery == badAt
		if pick.Uint64()&1 == 0 {
			s.Pool[i].Kind = VerifyR
		} else {
			s.Pool[i].Kind = Verify
		}
	}
	if err := parallel(PoolSize, func(i int) error {
		e := &s.Entries[i]
		r := rng(seed, "gateway", i+1)
		e.Digest = digest(r)
		sig, hint, err := repro.SignRecoverable(r, s.Sensors[e.Key], e.Digest)
		if err != nil {
			return err
		}
		e.Sig, e.Hint = sig, hint
		if e.Bad {
			// The signature stays well formed; the digest it is checked
			// against is not the one that was signed.
			e.Digest = append([]byte(nil), e.Digest...)
			e.Digest[0] ^= 0x01
		}
		q := &s.Pool[i]
		q.Bad, q.Ref = e.Bad, i
		key := s.Sensors[e.Key].PublicKey().BytesCompressed()
		if q.Kind == VerifyR {
			q.Type = frame.TVerifyR
			q.Payload = frame.AppendVerifyR(nil, hint, key, sig.Bytes(), e.Digest)
		} else {
			q.Type = frame.TVerify
			q.Payload = frame.AppendVerify(nil, key, sig.Bytes(), e.Digest)
		}
		return nil
	}); err != nil {
		return err
	}
	// Warm the key cache with one valid verify per sensor key.
	seen := make([]bool, NumSensors)
	for i, e := range s.Entries {
		if !e.Bad && !seen[e.Key] {
			seen[e.Key] = true
			s.Warm = append(s.Warm, s.Pool[i])
		}
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("sensor %d has no valid pool entry", k)
		}
	}
	return nil
}

func (s *Set) genFleet(seed uint64) error {
	ca := repro.NewCA(s.ServerKey)
	caPub := ca.PublicKey()
	s.Fleet = make([]Device, FleetSize)
	if err := parallel(FleetSize, func(i int) error {
		r := rng(seed, "device", i)
		d := &s.Fleet[i]
		d.Identity = []byte(fmt.Sprintf("sensor-%05d", i))
		req, err := repro.RequestCert(r, d.Identity)
		if err != nil {
			return err
		}
		cert, contrib, err := ca.Issue(req.Bytes(), d.Identity, r)
		if err != nil {
			return err
		}
		if d.Priv, err = repro.ReconstructPrivateKey(req, cert, contrib, caPub); err != nil {
			return err
		}
		d.Cert = cert
		d.Digest = digest(r)
		d.Sig, err = repro.Sign(d.Priv, d.Digest, r)
		return err
	}); err != nil {
		return err
	}
	s.Enrolls = make([]*repro.CertRequest, NumEnrolls)
	if err := parallel(NumEnrolls, func(i int) (err error) {
		s.Enrolls[i], err = repro.RequestCert(rng(seed, "enroll", i), []byte(fmt.Sprintf("fresh-%05d", i)))
		return err
	}); err != nil {
		return err
	}
	s.Peers = make([]*repro.PrivateKey, NumPeers)
	secrets := make([][]byte, NumPeers)
	if err := parallel(NumPeers, func(i int) (err error) {
		if s.Peers[i], err = repro.GenerateKey(rng(seed, "peer", i)); err != nil {
			return err
		}
		secrets[i], err = s.Peers[i].SharedSecret(s.ServerPub)
		return err
	}); err != nil {
		return err
	}
	// Fill the key cache to capacity before timing, so every phase
	// starts from the steady churn state.
	for i := 0; i < CacheCap; i++ {
		s.Warm = append(s.Warm, s.certVerify(i))
	}
	// The mix: 8 in 10 cert-verifies over the whole fleet, 1 in 10
	// enrollments of a fresh request, 1 in 10 ECDH from the peer pool.
	pick := rng(seed, "fleet", 0)
	enroll := 0
	for i := 0; i < PoolSize; i++ {
		switch roll := pick.Uint64() % 10; {
		case roll < 8:
			s.Pool = append(s.Pool, s.certVerify(int(pick.Uint64()%FleetSize)))
		case roll == 8:
			ref := enroll % NumEnrolls
			enroll++
			req := s.Enrolls[ref]
			s.Pool = append(s.Pool, Request{Kind: Enroll, Type: frame.TEnroll,
				Payload: frame.AppendEnroll(nil, req.Bytes(), req.Identity()), CertReq: req, Ref: ref})
		default:
			p := int(pick.Uint64() % NumPeers)
			s.Pool = append(s.Pool, Request{Kind: ECDH, Type: frame.TECDH,
				Payload: s.Peers[p].PublicKey().BytesCompressed(), Secret: secrets[p], Ref: p})
		}
	}
	return nil
}

func (s *Set) certVerify(i int) Request {
	d := &s.Fleet[i]
	return Request{Kind: CertVerify, Type: frame.TCertVerify, Ref: i,
		Payload: frame.AppendCertVerify(nil, d.Cert.Bytes(), d.Identity, d.Sig.Bytes(), d.Digest)}
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := f(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
