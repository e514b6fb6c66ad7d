package main

import (
	"bytes"
	"crypto/rand"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/frame"
	"repro/perfbench/inputs"
)

// tamperServer answers every request on one loopback connection with
// answer(req) and returns the address to dial.
func tamperServer(t *testing.T, answer func(f frame.Frame) (byte, []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fc := frame.NewConn(nc)
		for {
			f, err := fc.Read()
			if err != nil {
				return
			}
			typ, payload := answer(f)
			if fc.Write(f.ID, typ, payload) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// drive sends every request of reqs once through the closed loop
// and the post-phase checks, and returns the statuses.
func drive(t *testing.T, set *inputs.Set, reqs []inputs.Request, addr string) []status {
	t.Helper()
	nc, fc, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	l := newConnLog(reqs, len(reqs))
	closedLoop(nc, fc, l, inOrder(len(reqs)), 4, len(reqs), time.Now(), time.Minute, false)
	(&runner{set: set}).postCheck([]*connLog{l})
	out := make([]status, len(reqs))
	for i, st := range l.status {
		out[l.idx[i]] = st
	}
	return out
}

func mustSet(t *testing.T, workload string) *inputs.Set {
	t.Helper()
	set, err := inputs.Generate(workload, 7)
	if err != nil {
		t.Fatal(err)
	}
	set.ServerPub.Precompute()
	return set
}

// TestCheckerFlippedVerifyBit answers every verification with the
// opposite bit; each answer, including those for the corrupted
// signatures, must count as wrong.
func TestCheckerFlippedVerifyBit(t *testing.T) {
	set := mustSet(t, inputs.GatewayVerify)
	reqs := set.Pool[:2*inputs.BadEvery]
	byID := map[uint64]*inputs.Request{}
	for i := range reqs {
		byID[uint64(i)] = &reqs[i]
	}
	addr := tamperServer(t, func(f frame.Frame) (byte, []byte) {
		if byID[f.ID].Bad {
			return frame.TOK, []byte{1}
		}
		return frame.TOK, []byte{0}
	})
	bad := 0
	for i, st := range drive(t, set, reqs, addr) {
		if st != stWrong {
			t.Errorf("request %d (%v, bad=%v): %s, want wrong", i, reqs[i].Kind, reqs[i].Bad, statusNames[st])
		}
		if reqs[i].Bad {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("no corrupted signature among the requests")
	}
}

// TestCheckerWrongECDHSecret answers ECDH with a secret off by one bit
// and everything else correctly; only the ECDH answers are wrong.
func TestCheckerWrongECDHSecret(t *testing.T) {
	set := mustSet(t, inputs.FleetChurn)
	var reqs []inputs.Request
	for _, q := range set.Pool {
		if q.Kind == inputs.ECDH || q.Kind == inputs.CertVerify {
			reqs = append(reqs, q)
		}
		if len(reqs) == 40 {
			break
		}
	}
	byID := map[uint64]*inputs.Request{}
	for i := range reqs {
		byID[uint64(i)] = &reqs[i]
	}
	addr := tamperServer(t, func(f frame.Frame) (byte, []byte) {
		q := byID[f.ID]
		if q.Kind == inputs.ECDH {
			s := bytes.Clone(q.Secret)
			s[len(s)-1] ^= 1
			return frame.TOK, s
		}
		return frame.TOK, []byte{1}
	})
	ecdh := 0
	for i, st := range drive(t, set, reqs, addr) {
		want := stOK
		if reqs[i].Kind == inputs.ECDH {
			want = stWrong
			ecdh++
		}
		if st != want {
			t.Errorf("request %d (%v): %s, want %s", i, reqs[i].Kind, statusNames[st], statusNames[want])
		}
	}
	if ecdh == 0 {
		t.Fatal("no ECDH request among the requests")
	}
}

// TestCheckerInvalidSignature answers TSign with signatures that are
// well formed but wrong: one over another digest, one under another
// key. The post-phase check must turn both into wrong answers, and a
// real signature must pass.
func TestCheckerInvalidSignature(t *testing.T) {
	set := mustSet(t, inputs.SignSolo)
	reqs := set.Pool[:3]
	other, err := repro.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	addr := tamperServer(t, func(f frame.Frame) (byte, []byte) {
		var sig *repro.Signature
		var err error
		switch f.ID {
		case 0:
			sig, err = repro.Sign(set.ServerKey, f.Payload, rand.Reader)
		case 1:
			sig, err = repro.Sign(set.ServerKey, set.Digests[100], rand.Reader)
		default:
			sig, err = repro.Sign(other, f.Payload, rand.Reader)
		}
		if err != nil {
			return frame.TInternal, nil
		}
		return frame.TOK, sig.Bytes()
	})
	got := drive(t, set, reqs, addr)
	want := []status{stOK, stWrong, stWrong}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("signature %d: %s, want %s", i, statusNames[got[i]], statusNames[want[i]])
		}
	}
}

// TestCheckerRefusalsAreFailures maps every refusal frame to its
// failure class; none of them is a right answer.
func TestCheckerRefusalsAreFailures(t *testing.T) {
	set := mustSet(t, inputs.SignSolo)
	q := &set.Pool[0]
	for typ, want := range map[byte]status{
		frame.TOverload:   stShed,
		frame.TDraining:   stDraining,
		frame.TInternal:   stError,
		frame.TBadRequest: stError,
		frame.TOK:         stWrong, // empty payload is not a signature
	} {
		if got := judge(q, typ, nil); got != want {
			t.Errorf("response %#x: %s, want %s", typ, statusNames[got], statusNames[want])
		}
	}
}

// TestCheckerEnrollTampered answers an enrollment with a certificate
// issued by another CA; reconstruction against the server key fails.
func TestCheckerEnrollTampered(t *testing.T) {
	set := mustSet(t, inputs.FleetChurn)
	var q *inputs.Request
	for i := range set.Pool {
		if set.Pool[i].Kind == inputs.Enroll {
			q = &set.Pool[i]
			break
		}
	}
	if q == nil {
		t.Fatal("no enrollment in the pool")
	}
	for _, ca := range []*repro.PrivateKey{set.ServerKey, nil} {
		if ca == nil {
			var err error
			if ca, err = repro.GenerateKey(rand.Reader); err != nil {
				t.Fatal(err)
			}
		}
		cert, contrib, err := repro.NewCA(ca).Issue(q.CertReq.Bytes(), q.CertReq.Identity(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		payload := append(cert.Bytes(), contrib...)
		if judge(q, frame.TOK, payload) != stOK {
			t.Fatal("well-sized enrollment answer judged wrong before the post-check")
		}
		if got, want := postCheck(set.ServerPub, q, payload), ca == set.ServerKey; got != want {
			t.Errorf("certificate from the server CA=%v: post-check %v, want %v", ca == set.ServerKey, got, want)
		}
	}
}
