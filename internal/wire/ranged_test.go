package wire

import (
	"bytes"
	"errors"
	"testing"

	"dfsqos/internal/trace"
)

// TestRangedReadFileRoundTrip proves a ranged request (Length > 0)
// round-trips and surfaces through the ReadReq accessor, which is the only
// way servers should extract it (the payload is a pooled *ReadFile).
func TestRangedReadFileRoundTrip(t *testing.T) {
	want := ReadFile{File: 7, ChunkSize: 65536, Offset: 4096, Request: 99, Length: 131072}
	msg := slotPlain.roundTrip(t, KindReadFile, want)
	got, ok := msg.ReadReq()
	if !ok {
		t.Fatalf("ReadReq reported false for %T", msg.Payload)
	}
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
	msg.Release()
	if msg.Payload != nil {
		t.Error("Release left Payload set")
	}
}

// TestReadFileSingleLayout pins the one ReadFile layout: whole-file
// (Length 0) and ranged requests frame to the same 36-byte payload, Length
// always present, and the value form and the pooled pointer form WriteReadReq
// sends are the same bytes.
func TestReadFileSingleLayout(t *testing.T) {
	whole := ReadFile{File: 3, ChunkSize: 1024, Offset: 512, Request: 8}
	ranged := whole
	ranged.Length = 256
	for _, req := range []ReadFile{whole, ranged} {
		var byValue, byPointer bytes.Buffer
		if err := slotPlain.conn(&byValue).Write(KindReadFile, req); err != nil {
			t.Fatal(err)
		}
		if err := slotPlain.conn(&byPointer).WriteReadReq(trace.SpanContext{}, req); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(byValue.Bytes(), byPointer.Bytes()) {
			t.Fatalf("Write and WriteReadReq frame %+v differently:\n%x\n%x", req, byValue.Bytes(), byPointer.Bytes())
		}
		if want := headerSize + flagsSize + kindSize + 36; byValue.Len() != want {
			t.Fatalf("frame for %+v is %d bytes, want %d", req, byValue.Len(), want)
		}
		msg := slotPlain.read(t, slotPlain.conn(&byValue), &byValue, KindReadFile)
		if got, ok := msg.ReadReq(); !ok || got != req {
			t.Fatalf("decoded %+v ok=%v, want %+v", got, ok, req)
		}
		if _, pooled := msg.Payload.(*ReadFile); !pooled {
			t.Fatalf("request decoded to %T, want the pooled *ReadFile", msg.Payload)
		}
		msg.Release()
	}
}

// TestRangedReadFileMalformedLength proves the decode stays strict: only
// a 36-byte payload is a ReadFile, and anything shorter or longer — the
// length-less 28-byte form included — is a typed CodecError.
func TestRangedReadFileMalformedLength(t *testing.T) {
	for _, n := range []int{0, 28, 29, 35, 37, 44} {
		var buf bytes.Buffer
		writeRawFrame(&buf, CodecBinary, binaryBody(KindReadFile, make([]byte, n)))
		_, err := NewConn(&buf).Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("%d-byte payload: want CodecError, got %v", n, err)
		}
		if ce.Kind != KindReadFile {
			t.Errorf("%d-byte payload: CodecError kind %v, want ReadFile", n, ce.Kind)
		}
	}
}

// TestFileEndPointerPayload pins the form a server ends a stream with: a
// (pooled) *FileEnd encodes to the same frame as the value, and arrives in
// a pooled *FileEnd that receivers read through Msg.FileEnd.
func TestFileEndPointerPayload(t *testing.T) {
	want := FileEnd{Size: 1 << 33, Checksum: 0xE3069283}
	var byValue, byPointer bytes.Buffer
	for buf, payload := range map[*bytes.Buffer]any{&byValue: want, &byPointer: &want} {
		if err := NewConn(buf).Write(KindFileEnd, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(byValue.Bytes(), byPointer.Bytes()) {
		t.Error("pointer payload framed differently from the value")
	}
	msg, err := NewConn(&byPointer).Read()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, ok := msg.FileEnd(); !ok || got != want {
		t.Errorf("got %#v, want the FileEnd value %+v", msg.Payload, want)
	}
	if _, pooled := msg.Payload.(*FileEnd); !pooled {
		t.Fatalf("FileEnd decoded to %T, want the pooled *FileEnd", msg.Payload)
	}
	msg.Release()
	if _, ok := msg.FileEnd(); ok {
		t.Error("FileEnd still readable after Release")
	}
}
