package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// frameBytes assembles a complete frame for the seed corpus.
func frameBytes(codec Codec, body []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(body))
	binary.BigEndian.PutUint32(out[:4], uint32(len(body)))
	out[4] = byte(codec)
	return append(out, body...)
}

// FuzzRead feeds arbitrary byte streams to Conn.Read. The invariant under
// hostile input is "typed error or valid message, never a panic": short
// headers, truncated bodies, oversized declared lengths, unknown codec
// tags, counts and lengths past the body's end, and malformed layouts
// must all surface as errors while leaving the buffer pools consistent.
// And whatever the
// stream holds, how it is delivered — whole, a byte at a time, cut in two
// at a fuzz-chosen offset, its last bytes together with the EOF — must
// not change the messages Read returns or the error it ends on: each
// shape is held to the header-then-body reference (delivery_test.go).
func FuzzRead(f *testing.F) {
	fuzzReadSeeds(func(stream []byte) {
		f.Add(stream, uint16(len(stream)/2))
		f.Add(stream, uint16(headerSize+1))
	})
	f.Fuzz(func(t *testing.T, stream []byte, split uint16) {
		// Every shape reads the stream to its terminal error, copies every
		// borrowed chunk byte and releases every message.
		checkDeliveryShapes(t, stream, int(split))
	})
}

// fuzzReadSeeds hands FuzzRead's seed streams to add.
func fuzzReadSeeds(add func(stream []byte)) {
	chunk := append(binary.BigEndian.AppendUint64(nil, 16), "data bytes"...)
	// Valid frames: a chunk and one of every other kind, under every header.
	for _, s := range slotCases {
		add(frameBytes(CodecBinary, s.body(KindFileChunk, chunk)))
		for _, p := range everyPayload() {
			add(slotFrame(s, p))
		}
	}
	// Two valid frames back to back (multi-frame streams).
	add(append(slotFrame(slotPlain, ctlPayload{KindAck, Ack{}}),
		frameBytes(CodecBinary, slotTenant.body(KindKeepalive, make([]byte, 8)))...))
	// Hostile shapes.
	add([]byte{})
	add([]byte{0, 0})                                                               // short header
	add([]byte{0xff, 0xff, 0xff, 0xff, 0})                                          // oversized declared length
	add([]byte{0, 0, 1, 0, 0, 1, 2})                                                // truncated body
	add(frameBytes(Codec(200), []byte{1, 2, 3}))                                    // unknown codec tag
	add(frameBytes(Codec(2), slotTrace.body(KindAck, nil)))                         // the retired traced tag
	add(frameBytes(Codec(3), slotTenantTrace.body(KindAck, nil)))                   // the retired tenant tag
	add(frameBytes(Codec(0), []byte{1, 2, 3, 4}))                                   // the retired gob tag
	add(frameBytes(CodecBinary, nil))                                               // no flags byte
	add(frameBytes(CodecBinary, binaryBody(KindFileChunk, []byte{1})))              // short chunk
	add(frameBytes(CodecBinary, binaryBody(KindReadFile, make([]byte, 28))))        // ReadFile without its length
	add(frameBytes(CodecBinary, binaryBody(Kind(60000), []byte("??"))))             // unknown kind
	add(frameBytes(CodecBinary, binaryBody(KindRMInfoList, []byte{0x40, 0, 0, 0}))) // 2^30 entries announced
	for _, s := range slotCases {
		for _, body := range hostileBodies(s) {
			add(frameBytes(CodecBinary, body))
		}
	}
}

// slotFrame encodes p through the real writer under s.
func slotFrame(s slotCase, p ctlPayload) []byte {
	var buf bytes.Buffer
	if err := s.conn(&buf).WriteTraced(s.tc, p.kind, p.payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hostileBodies is every well-formed body under s mangled: the header cut
// at each length short of the kind field, then per payload the last byte
// cut off, one byte appended, an undefined flag bit set, each byte that
// could be a bool set to 2, and each byte that could start a count or a
// length set to 0x40. (Variable-tail kinds accept some of these — that is
// for the decoder to say, not the corpus.)
func hostileBodies(s slotCase) [][]byte {
	var out [][]byte
	pre := len(s.header()) + kindSize
	for cut := 0; cut < pre; cut++ {
		out = append(out, s.body(KindAck, nil)[:cut])
	}
	for _, p := range everyPayload() {
		body := slotFrame(s, p)[headerSize:]
		badFlag := bytes.Clone(body)
		badFlag[0] |= 0x80
		out = append(out, body[:len(body)-1], append(bytes.Clone(body), 0), badFlag)
		mangle := func(at int, v byte) {
			if at < len(body) {
				bad := bytes.Clone(body)
				bad[at] = v
				out = append(out, bad)
			}
		}
		// OpenResult.OK and OfferReply.Accepted; EndReplication.Commit and
		// FinishReplica.Committed; Open.Firm; Bid.HasReplica.
		for _, at := range []int{pre, pre + 8, pre + 28, pre + 36} {
			mangle(at, 2)
		}
		// RMInfoList's count and ShardMirror's op length; ShardHandoff's
		// direction length; RegisterRM's address length, then its file
		// count when the address is empty.
		for _, at := range []int{pre, pre + 4, pre + 20, pre + 24} {
			mangle(at, 0x40)
		}
	}
	return out
}

// FuzzBinaryCtlRoundTrip feeds arbitrary bodies to the frame decoder under
// any tag and, when one decodes, writes the message back out: the
// re-encoded frame must be byte-identical to the input (the layouts are
// canonical — one value, one encoding), a rejected body must surface a
// *CodecError and nothing else, and neither direction may panic.
func FuzzBinaryCtlRoundTrip(f *testing.F) {
	for _, s := range slotCases {
		for _, p := range everyPayload() {
			f.Add(uint8(CodecBinary), slotFrame(s, p)[headerSize:])
		}
		for _, body := range hostileBodies(s) {
			f.Add(uint8(CodecBinary), body)
		}
	}
	f.Add(uint8(CodecBinary), binaryBody(KindRegisterRM, []byte("not a registration")))
	f.Add(uint8(0), binaryBody(KindAck, nil))
	f.Add(uint8(1), binaryBody(KindError, []byte("a codeless error")))
	f.Add(uint8(2), slotTrace.body(KindAck, nil))
	f.Add(uint8(3), slotTenantTrace.body(KindAck, nil))
	f.Add(uint8(9), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, tag uint8, body []byte) {
		if len(body) > MaxFrame {
			return // oversized frames are FuzzRead's
		}
		in := frameBytes(Codec(tag), body)
		msg, err := NewConn(bytes.NewBuffer(in)).Read()
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) {
				t.Fatalf("tag %d: rejection is %T (%v), want *CodecError", tag, err, err)
			}
			return
		}
		if Codec(tag) != CodecBinary {
			t.Fatalf("tag %d decoded as %v; only tag 1 exists", tag, msg.Kind)
		}
		// Two well-formed inputs are not how the writer would frame the same
		// message, so they are not expected to re-encode identically: a
		// tenant slot holding no tenant and a trace slot holding half a span
		// context or none (the writer omits both slots).
		if (body[0]&flagTenant != 0 && !msg.Tenant.Valid()) || (body[0]&flagTrace != 0 && !msg.Trace.Valid()) {
			msg.Release()
			return
		}
		var out bytes.Buffer
		w := NewConn(&out)
		w.SetTenant(msg.Tenant)
		if err := w.WriteTraced(msg.Trace, msg.Kind, msg.Payload); err != nil {
			t.Fatalf("re-encoding %v: %v", msg.Kind, err)
		}
		msg.Release()
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("%v re-encoded differently:\n in  %x\n out %x", msg.Kind, in, out.Bytes())
		}
	})
}

// FuzzBinaryChunkRoundTrip drives the chunk encoder and decoder
// against each other: any (offset, data) pair must survive the writev
// framing byte-for-byte under every slot combination.
func FuzzBinaryChunkRoundTrip(f *testing.F) {
	f.Add(int64(0), []byte(nil))
	f.Add(int64(1), []byte("x"))
	f.Add(int64(-1), []byte("negative offsets must survive the unsigned layout"))
	f.Add(int64(1<<40), bytes.Repeat([]byte{0xa5}, 1024))

	f.Fuzz(func(t *testing.T, offset int64, data []byte) {
		for _, s := range slotCases {
			s.chunkRoundTrip(t, offset, data)
		}
	})
}
