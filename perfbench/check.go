package main

import (
	"bytes"

	"repro"
	"repro/internal/frame"
	"repro/perfbench/inputs"
)

// status is the outcome of one request.
type status uint8

const (
	stPending  status = iota // no answer (yet)
	stOK                     // answered, and the answer is right
	stShed                   // TOverload
	stDraining               // TDraining
	stError                  // TBadRequest, TInternal, an unknown frame or a transport error
	stTimeout                // no answer within the grace period after the phase
	stWrong                  // answered TOK with a wrong answer
	numStatus
)

var statusNames = [numStatus]string{"pending", "ok", "shed", "draining", "error", "timeout", "wrong"}

// judge classifies one response to req. For Sign and Enroll an stOK
// verdict is provisional until postCheck has run on the payload.
func judge(req *inputs.Request, typ byte, payload []byte) status {
	switch typ {
	case frame.TOK:
	case frame.TOverload:
		return stShed
	case frame.TDraining:
		return stDraining
	default:
		return stError
	}
	switch req.Kind {
	case inputs.Verify, inputs.VerifyR, inputs.CertVerify:
		want := byte(1)
		if req.Bad {
			want = 0
		}
		if len(payload) != 1 || payload[0] != want {
			return stWrong
		}
	case inputs.ECDH:
		if !bytes.Equal(payload, req.Secret) {
			return stWrong
		}
	case inputs.Sign:
		if len(payload) != frame.SigSize {
			return stWrong
		}
	case inputs.Enroll:
		if len(payload) != frame.CertSize+frame.ContribSize {
			return stWrong
		}
	}
	return stOK
}

// keepsPayload reports whether a response must be kept for postCheck.
func keepsPayload(k inputs.Kind) bool { return k == inputs.Sign || k == inputs.Enroll }

// postCheck does the checks that need crypto, after the phase has
// ended: a returned signature must verify under the server key over
// the digest sent, and an issued certificate must reconstruct to a
// private key whose public key is the one extracted from it.
func postCheck(serverPub *repro.PublicKey, req *inputs.Request, payload []byte) bool {
	switch req.Kind {
	case inputs.Sign:
		sig, err := repro.ParseSignature(payload)
		return err == nil && serverPub.Verify(req.Digest, sig)
	case inputs.Enroll:
		cert, err := repro.ParseCert(payload[:frame.CertSize], req.CertReq.Identity())
		if err != nil {
			return false
		}
		priv, err := repro.ReconstructPrivateKey(req.CertReq, cert, payload[frame.CertSize:], serverPub)
		if err != nil {
			return false
		}
		pub, err := repro.ExtractPublicKey(cert, serverPub)
		return err == nil && priv.PublicKey().Equal(pub)
	}
	return true
}
