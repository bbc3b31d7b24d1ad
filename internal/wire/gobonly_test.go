//go:build gobonly

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/trace"
)

// The gobonly build tag models a legacy peer compiled without the binary
// fast path. Its contract: every outgoing frame (chunks included) is gob,
// and incoming binary frames fail with a typed *CodecError instead of
// being misparsed. `make gobonly` compiles and runs these.

func TestGobOnlyBuildEmitsGobFrames(t *testing.T) {
	if buildFastPath {
		t.Fatal("buildFastPath true in a gobonly build")
	}
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteChunk(128, []byte("legacy")); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("gobonly chunk went out as %v", got)
	}
	msg, err := NewConn(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != 128 || string(ch.Data) != "legacy" {
		t.Fatalf("chunk mangled: %+v", msg.Payload)
	}
	msg.Release()
}

// TestGobOnlyBuildCarriesTraceOnGob: a legacy build still propagates
// span contexts — traced writes fall back to the gob envelope's Trace
// field instead of the fast path's trace slot.
func TestGobOnlyBuildCarriesTraceOnGob(t *testing.T) {
	tc := trace.SpanContext{Trace: 7, Span: 8}
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteTraced(tc, KindFileEnd, FileEnd{Size: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChunkTraced(tc, 16, []byte("legacy traced")); err != nil {
		t.Fatal(err)
	}
	// Both frames are on the stream already and Read may take them off it
	// together, so the tags are checked on a copy, frame by frame.
	frames := bytes.Clone(buf.Bytes())
	for i := 0; i < 2; i++ {
		if got := Codec(frames[4]); got != CodecGob {
			t.Fatalf("gobonly traced frame %d went out as %v", i, got)
		}
		frames = frames[headerSize+int(binary.BigEndian.Uint32(frames[:4])):]
		msg, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Trace != tc {
			t.Fatalf("frame %d trace = %+v, want %+v", i, msg.Trace, tc)
		}
		msg.Release()
	}
}

// TestGobOnlyBuildRejectsBinaryFrames: the frames a fast-path peer would
// send — a chunk and a keepalive under every slot combination — are each
// refused with the typed error, and so are the retired tags 2 and 3.
func TestGobOnlyBuildRejectsBinaryFrames(t *testing.T) {
	var buf bytes.Buffer
	var wantTags []Codec
	for _, s := range slotCases {
		writeRawFrame(&buf, CodecBinary, s.body(KindFileChunk, append(make([]byte, 8), 'x')))
		writeRawFrame(&buf, CodecBinary, s.body(KindKeepalive, binary.BigEndian.AppendUint64(nil, 3)))
		wantTags = append(wantTags, CodecBinary, CodecBinary)
	}
	writeRawFrame(&buf, Codec(2), slotTrace.body(KindAck, nil))
	writeRawFrame(&buf, Codec(3), slotTenantTrace.body(KindAck, nil))
	wantTags = append(wantTags, 2, 3)

	r := NewConn(&buf)
	for i, tag := range wantTags {
		_, err := r.Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("frame %d in gobonly build: err = %v, want CodecError", i, err)
		}
		if ce.Codec != tag {
			t.Fatalf("frame %d: misreported codec: %+v, want tag %d", i, ce, tag)
		}
	}
}

// TestGobOnlyBuildKeepsNegotiationOnGob: the seven per-open kinds have a
// binary layout in the default build; compiled gobonly, a default
// connection still frames every one of them as gob — plain and traced —
// and they round-trip with the same values.
func TestGobOnlyBuildKeepsNegotiationOnGob(t *testing.T) {
	for _, p := range ctlPayloads() {
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			c := NewConn(&buf)
			var err error
			if traced {
				err = c.WriteTraced(testTC, p.kind, p.payload)
			} else {
				err = c.Write(p.kind, p.payload)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := Codec(buf.Bytes()[4]); got != CodecGob {
				t.Fatalf("gobonly %v (traced=%v) went out as %v", p.kind, traced, got)
			}
			msg, err := c.Read()
			if err != nil {
				t.Fatalf("%v: %v", p.kind, err)
			}
			want := p.payload
			if l, ok := want.(RMList); ok && len(l.RMs) == 0 {
				want = RMList{} // gob decodes an empty list to nil
			}
			if msg.Kind != p.kind || !bitEqual(reflect.ValueOf(msg.Payload), reflect.ValueOf(want)) {
				t.Fatalf("%v mangled on gob:\n got %#v\nwant %#v", p.kind, msg.Payload, want)
			}
			if traced && msg.Trace != testTC {
				t.Fatalf("%v: trace %+v", p.kind, msg.Trace)
			}
		}
	}
}

// TestGobOnlyBuildRejectsBinaryNegotiationFrames: a fast-path peer's
// binary CFP is refused with the typed error, like its chunks are.
func TestGobOnlyBuildRejectsBinaryNegotiationFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	if err := w.Write(KindCFP, ecnp.CFP{Request: 1, File: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := NewConn(&buf).Read()
	var ce *CodecError
	if !errors.As(err, &ce) || ce.Codec != CodecBinary {
		t.Fatalf("binary CFP in gobonly build: err = %v, want a binary CodecError", err)
	}
}
