package rpcio

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzArgsDst returns a fresh decode destination for a method's args
// (nil for a number no method answers to).
func fuzzArgsDst(m Method) any {
	switch m {
	case MethodHealth, MethodRegistrarPing:
		return &HealthProbe{}
	case MethodBatch:
		return &BatchArgs{}
	case MethodAggAttach:
		return &AggAttachArgs{}
	case MethodAggRound:
		return &AggRoundArgs{}
	case MethodRegister:
		return &Registration{}
	case MethodDeregister:
		return new(string)
	default:
		return nil
	}
}

// fuzzReplyDst returns a fresh decode destination for a method's reply
// (nil when the reply is empty).
func fuzzReplyDst(m Method) any {
	switch m {
	case MethodHealth:
		return &StageHealth{}
	case MethodBatch:
		return &BatchReply{}
	case MethodAggAttach:
		return &AggInfo{}
	case MethodAggRound:
		return &AggRoundReply{}
	case MethodRegistrarPing:
		return &HealthProbe{}
	default:
		return nil
	}
}

// headerSeeds returns frame headers built at the current WireVersion,
// one per parseFrameHeader arm: well-formed, oversize length, version
// skew, bad magic, and truncated. Built in code rather than frozen in
// the corpus, so a version bump can never leave them stuck at the
// version check short of the arm they are meant to reach.
func headerSeeds() [][]byte {
	header := func(mutate func([]byte)) []byte {
		b := make([]byte, frameHeaderLen)
		putFrameHeader(b, frameHeader{kind: frameRequest, method: MethodBatch, stream: 1, channel: 1})
		mutate(b)
		return b
	}
	return [][]byte{
		header(func([]byte) {}),
		header(func(b []byte) { binary.LittleEndian.PutUint32(b[20:], maxFramePayload+1) }),
		header(func(b []byte) { b[4] = WireVersion + 1 }),
		header(func(b []byte) { b[0] ^= 0xFF }),
		header(func([]byte) {})[:frameHeaderLen-1],
	}
}

// FuzzWireDecode throws arbitrary bytes at every decoder surface a peer
// can reach: the frame header parser and each method's args and reply
// decoders. The invariants:
//
//  1. no input panics or over-reads (a slice overrun would panic);
//  2. malformed, truncated, or version-skewed input returns an error,
//     never a silently-wrong value;
//  3. any accepted payload is a fixpoint: re-encoding the decoded value
//     and decoding again reproduces byte-identical output, so decoder
//     and encoder agree on the schema for every reachable value.
func FuzzWireDecode(f *testing.F) {
	for _, fx := range callFixtures() {
		m := fx.method
		if fx.args != nil {
			buf, err := appendCallArgs(nil, m, fx.args)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(m), false, buf)
		}
		if fx.reply != nil {
			buf, err := appendCallReply(nil, m, fx.reply)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(m), true, buf)
		}
	}
	for _, hdr := range headerSeeds() {
		f.Add(uint8(MethodBatch), true, hdr)
	}

	f.Fuzz(func(t *testing.T, mRaw uint8, isReply bool, data []byte) {
		// Surface 1: the frame header parser. Errors are expected for
		// malformed input; panics never are.
		if h, err := parseFrameHeader(data); err == nil {
			if h.length > maxFramePayload {
				t.Fatalf("parseFrameHeader accepted length %d over the %d limit", h.length, maxFramePayload)
			}
		}

		// Surface 2: the per-method payload decoders.
		m := Method(mRaw)
		var dst any
		if isReply {
			dst = fuzzReplyDst(m)
		} else {
			dst = fuzzArgsDst(m)
		}
		if dst == nil {
			return
		}
		decode := func(payload []byte, v any) error {
			if isReply {
				return readCallReply(m, payload, v)
			}
			return readCallArgs(m, payload, v)
		}
		encode := func(v any) ([]byte, error) {
			if isReply {
				return appendCallReply(nil, m, v)
			}
			return appendCallArgs(nil, m, v)
		}
		if err := decode(data, dst); err != nil {
			return // rejected cleanly: exactly what malformed input should get
		}
		// Accepted: the decoded value must re-encode and re-decode to a
		// byte-identical fixpoint (values, not input bytes — varints have
		// non-canonical spellings the reader tolerates).
		b1, err := encode(dst)
		if err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
		dst2 := fuzzArgsDst(m)
		if isReply {
			dst2 = fuzzReplyDst(m)
		}
		if err := decode(b1, dst2); err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v\npayload: %x", err, b1)
		}
		b2, err := encode(dst2)
		if err != nil {
			t.Fatalf("re-decoded value failed to re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode/decode not a fixpoint:\n b1: %x\n b2: %x", b1, b2)
		}
	})
}
