package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dfsqos/internal/trace"
)

// frameBytes assembles a complete frame for the seed corpus.
func frameBytes(codec Codec, body []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(body))
	binary.BigEndian.PutUint32(out[:4], uint32(len(body)))
	out[4] = byte(codec)
	return append(out, body...)
}

// gobFrame encodes (kind, payload) through the real writer for the corpus.
func gobFrame(kind Kind, payload any) []byte {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetFastPath(false)
	if err := c.Write(kind, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzRead feeds arbitrary byte streams to Conn.Read. The invariant under
// hostile input is "typed error or valid message, never a panic": short
// headers, truncated bodies, oversized declared lengths, unknown codec
// tags, garbage gob, and malformed binary layouts must all surface as
// errors while leaving the buffer pools consistent.
func FuzzRead(f *testing.F) {
	// Valid frames of both codecs.
	f.Add(gobFrame(KindCount, Count{N: 7}))
	f.Add(gobFrame(KindFileChunk, FileChunk{Offset: 8, Data: []byte("abc")}))
	f.Add(frameBytes(CodecBinary, binaryBody(KindFileChunk,
		append(binary.BigEndian.AppendUint64(nil, 16), "data bytes"...))))
	f.Add(frameBytes(CodecBinary, binaryBody(KindFileEnd, make([]byte, 16))))
	f.Add(frameBytes(CodecBinary, binaryBody(KindAck, nil)))
	f.Add(frameBytes(CodecBinary, binaryBody(KindError, []byte("boom"))))
	// Traced (tag 2) and tenant (tag 3) frames: the slot(s) precede a
	// plain binary-v1 body.
	f.Add(frameBytes(CodecBinaryTraced, append(make([]byte, traceSize),
		binaryBody(KindFileChunk, append(binary.BigEndian.AppendUint64(nil, 16), "data bytes"...))...)))
	f.Add(frameBytes(CodecBinaryTraced, append(make([]byte, traceSize), binaryBody(KindAck, nil)...)))
	f.Add(frameBytes(CodecBinaryTenant, append(make([]byte, tenantSize+traceSize),
		binaryBody(KindFileChunk, append(binary.BigEndian.AppendUint64(nil, 16), "data bytes"...))...)))
	f.Add(frameBytes(CodecBinaryTenant, append(make([]byte, tenantSize+traceSize), binaryBody(KindKeepalive, make([]byte, 8))...)))
	// Two valid frames back to back (multi-frame streams).
	f.Add(append(gobFrame(KindAck, Ack{}),
		frameBytes(CodecBinary, binaryBody(KindKeepalive, make([]byte, 8)))...))
	// Hostile shapes.
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                                        // short header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})                                   // oversized declared length
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2})                                         // truncated body
	f.Add(frameBytes(Codec(200), []byte{1, 2, 3}))                             // unknown codec tag
	f.Add(frameBytes(CodecGob, []byte{1, 2, 3, 4}))                            // garbage gob
	f.Add(frameBytes(CodecBinary, nil))                                        // binary body shorter than kind
	f.Add(frameBytes(CodecBinary, binaryBody(KindFileChunk, []byte{1})))       // short chunk
	f.Add(frameBytes(CodecBinary, binaryBody(KindReadFile, make([]byte, 5))))  // wrong fixed len
	f.Add(frameBytes(CodecBinary, binaryBody(Kind(60000), []byte("??"))))      // uncovered kind
	f.Add(frameBytes(CodecBinaryTraced, make([]byte, traceSize-1)))            // short trace slot
	f.Add(frameBytes(CodecBinaryTenant, make([]byte, tenantSize+traceSize-1))) // short tenant+trace slots
	f.Add(frameBytes(CodecBinaryTenant, make([]byte, tenantSize+traceSize)))   // slots but no kind
	// The per-open bodies: one well-formed frame each under tags 1, 2 and
	// 3, then the same body truncated, over-long and with a bad bool byte.
	for _, tag := range []Codec{CodecBinary, CodecBinaryTraced, CodecBinaryTenant} {
		for _, p := range ctlPayloads() {
			f.Add(ctlFrame(tag, p))
		}
	}
	for _, body := range hostileCtlBodies() {
		f.Add(frameBytes(CodecBinary, body))
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		c := NewConn(bytes.NewBuffer(stream))
		for {
			msg, err := c.Read()
			if err != nil {
				return // any error ends the stream; the invariant is no panic
			}
			if ch, ok := msg.Chunk(); ok {
				_ = ChecksumUpdate(ChecksumBasis, ch.Data) // touch every borrowed byte
			}
			msg.Release()
		}
	})
}

// ctlFrame encodes p through the real writer under the given tag.
func ctlFrame(tag Codec, p ctlPayload) []byte {
	var buf bytes.Buffer
	if err := writeUnderTag(NewConn(&buf), tag, p.kind, p.payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hostileCtlBodies is every well-formed per-open binary-v1 body mangled
// three ways: last byte cut off, one byte appended, and each byte that
// could be a bool set to 2. (Variable-tail kinds accept some of these —
// that is for the decoder to say, not the corpus.)
func hostileCtlBodies() [][]byte {
	var out [][]byte
	for _, p := range ctlPayloads() {
		body := ctlFrame(CodecBinary, p)[headerSize:]
		out = append(out, body[:len(body)-1], append(bytes.Clone(body), 0))
		for _, at := range []int{kindSize, kindSize + 28, kindSize + 36} { // OpenResult.OK, Open.Firm, Bid.HasReplica
			if at < len(body) {
				bad := bytes.Clone(body)
				bad[at] = 2
				out = append(out, bad)
			}
		}
	}
	return out
}

// FuzzBinaryCtlRoundTrip feeds arbitrary bodies to the binary decoder
// under every tag and, when one decodes, writes the message back out: the
// re-encoded frame must be byte-identical to the input (the layouts are
// canonical — one value, one encoding), a rejected body must surface a
// *CodecError and nothing else, and neither direction may panic.
func FuzzBinaryCtlRoundTrip(f *testing.F) {
	for _, tag := range []Codec{CodecBinary, CodecBinaryTraced, CodecBinaryTenant} {
		for _, p := range ctlPayloads() {
			f.Add(uint8(tag), ctlFrame(tag, p)[headerSize:])
		}
	}
	for _, body := range hostileCtlBodies() {
		f.Add(uint8(CodecBinary), body)
		f.Add(uint8(CodecBinaryTraced), append(make([]byte, traceSize), body...))
		f.Add(uint8(CodecBinaryTenant), append(make([]byte, tenantSize+traceSize), body...))
	}
	f.Add(uint8(CodecBinary), binaryBody(KindRegisterRM, []byte("not covered")))
	f.Add(uint8(9), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, tag uint8, body []byte) {
		if Codec(tag) == CodecGob || len(body) > MaxFrame {
			return // gob has its own decoder; oversized frames are FuzzRead's
		}
		in := frameBytes(Codec(tag), body)
		r := NewConn(bytes.NewBuffer(in))
		r.SetAcceptBinary(true)
		msg, err := r.Read()
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) {
				t.Fatalf("tag %d: rejection is %T (%v), want *CodecError", tag, err, err)
			}
			return
		}
		// Four well-formed inputs are not how the writer would frame the
		// same message, so they are not expected to re-encode identically:
		// a tag-2 frame without a valid span context (sent as tag 1), a
		// tag-3 frame without a valid tenant (likewise) or with half a span
		// context (sent with a zero trace slot), and a ranged ReadFile
		// whose length says "whole file" (sent without the length).
		switch Codec(tag) {
		case CodecBinaryTraced:
			if !msg.Trace.Valid() {
				msg.Release()
				return
			}
		case CodecBinaryTenant:
			if !msg.Tenant.Valid() || (msg.Trace != trace.SpanContext{} && !msg.Trace.Valid()) {
				msg.Release()
				return
			}
		}
		if rq, ok := msg.Payload.(*ReadFile); ok && rq.Length <= 0 {
			msg.Release()
			return
		}
		var out bytes.Buffer
		w := NewConn(&out)
		w.SetFastPath(true)
		w.SetTenant(msg.Tenant)
		if err := w.WriteTraced(msg.Trace, msg.Kind, msg.Payload); err != nil {
			t.Fatalf("re-encoding %v: %v", msg.Kind, err)
		}
		msg.Release()
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("%v under tag %d re-encoded differently:\n in  %x\n out %x", msg.Kind, tag, in, out.Bytes())
		}
	})
}

// FuzzBinaryChunkRoundTrip drives the fast-path encoder and decoder
// against each other: any (offset, data) pair must survive the writev
// framing byte-for-byte.
func FuzzBinaryChunkRoundTrip(f *testing.F) {
	f.Add(int64(0), []byte(nil))
	f.Add(int64(1), []byte("x"))
	f.Add(int64(-1), []byte("negative offsets must survive the unsigned layout"))
	f.Add(int64(1<<40), bytes.Repeat([]byte{0xa5}, 1024))

	f.Fuzz(func(t *testing.T, offset int64, data []byte) {
		var buf bytes.Buffer
		w := NewConn(&buf)
		w.SetFastPath(true)
		if err := w.WriteChunk(offset, data); err != nil {
			t.Fatalf("WriteChunk(%d, %d bytes): %v", offset, len(data), err)
		}
		r := NewConn(&buf)
		r.SetAcceptBinary(true)
		msg, err := r.Read()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		ch, ok := msg.Chunk()
		if !ok {
			t.Fatalf("payload %T is not a chunk", msg.Payload)
		}
		if ch.Offset != offset {
			t.Fatalf("offset %d → %d", offset, ch.Offset)
		}
		if !bytes.Equal(ch.Data, data) {
			t.Fatalf("%d data bytes mangled", len(data))
		}
		msg.Release()
	})
}

// FuzzChecksumEquivalence pins the unrolled ChecksumUpdate to the scalar
// FNV-1a definition for arbitrary inputs and split points.
func FuzzChecksumEquivalence(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte("abcdefgh"), uint8(3))
	f.Add(bytes.Repeat([]byte{7}, 100), uint8(50))

	f.Fuzz(func(t *testing.T, data []byte, cutByte uint8) {
		whole := ChecksumUpdate(ChecksumBasis, data)
		if want := checksumScalar(ChecksumBasis, data); whole != want {
			t.Fatalf("unrolled %x != scalar %x over %d bytes", whole, want, len(data))
		}
		cut := 0
		if len(data) > 0 {
			cut = int(cutByte) % (len(data) + 1)
		}
		split := ChecksumUpdate(ChecksumUpdate(ChecksumBasis, data[:cut]), data[cut:])
		if split != whole {
			t.Fatalf("split at %d: %x != whole %x", cut, split, whole)
		}
	})
}
