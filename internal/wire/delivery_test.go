package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
)

// Conn.Read takes bytes off the stream ahead of the frame it is returning,
// so how a stream is cut into reads — whole, a byte at a time, split
// anywhere — must not show in what Read returns. The tests here hold it to
// refReader, which reads a frame the way Read did before it had a
// read-ahead.

// refReader is the reference: io.ReadFull of the five header bytes, then
// io.ReadFull of exactly the body, nothing taken from the stream early.
type refReader struct {
	r   io.Reader
	hdr [headerSize]byte
}

func (c *refReader) Read() (Msg, error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return Msg{}, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:4])
	codec := Codec(c.hdr[4])
	if n > MaxFrame {
		return Msg{}, &FrameTooLargeError{Size: int64(n), Cap: MaxFrame}
	}
	bp := getBuf(int(n))
	body := (*bp)[:n]
	if _, err := io.ReadFull(c.r, body); err != nil {
		putBuf(bp)
		return Msg{}, fmt.Errorf("wire: reading body: %w", err)
	}
	if codec != CodecBinary {
		putBuf(bp)
		return Msg{}, &CodecError{Codec: codec, Reason: "unknown codec tag"}
	}
	msg, retained, err := decodeFrame(body, bp)
	if !retained {
		putBuf(bp)
	}
	return msg, err
}

// frameReader is what drain reads messages from: a Conn, a Conn read
// through ReadInto, or the reference.
type frameReader interface{ Read() (Msg, error) }

// intoReader drains a Conn through ReadInto, handing it the same dst for
// every frame, and holds it to ReadInto's promises about dst: a chunk
// whose data fits is received into dst (its Data aliases it), and any
// other message leaves dst untouched.
type intoReader struct {
	t   *testing.T
	c   *Conn
	dst []byte
}

// dstFill is what an intoReader's dst holds before each ReadInto.
const dstFill = 0xee

func (r *intoReader) Read() (Msg, error) {
	for i := range r.dst {
		r.dst[i] = dstFill
	}
	msg, err := r.c.ReadInto(r.dst)
	if err != nil {
		return msg, err
	}
	ch, ok := msg.Chunk()
	if fits := ok && len(r.dst) > 0 && len(ch.Data) <= len(r.dst); fits != aliases(ch, r.dst) {
		r.t.Errorf("ReadInto with a %d-byte dst: %v message aliases dst %v, its data fits %v", len(r.dst), msg.Kind, !fits, fits)
	} else if !fits && bytes.Count(r.dst, []byte{dstFill}) != len(r.dst) {
		r.t.Errorf("ReadInto with a %d-byte dst wrote into it for a %v message that does not fit", len(r.dst), msg.Kind)
	}
	return msg, nil
}

// aliases reports whether a chunk's Data starts at dst's first byte.
func aliases(ch *FileChunk, dst []byte) bool {
	return ch != nil && cap(ch.Data) > 0 && cap(dst) > 0 && &ch.Data[:1][0] == &dst[:1][0]
}

// drain reads r to its terminal error and returns a printable rendering of
// every message, in order, and of the error (type and text: the callers of
// Read match on both), and the data length of every chunk. Pooled
// payloads are rendered by value and released.
func drain(r frameReader) (msgs []string, terminal string, chunkLens []int) {
	for {
		msg, err := r.Read()
		if err != nil {
			return msgs, fmt.Sprintf("%T: %v", err, err), chunkLens
		}
		payload := msg.Payload
		if ch, ok := msg.Chunk(); ok {
			payload = FileChunk{Offset: ch.Offset, Data: bytes.Clone(ch.Data)}
			chunkLens = append(chunkLens, len(ch.Data))
		} else if rq, ok := msg.ReadReq(); ok {
			payload = rq
		} else if fe, ok := msg.FileEnd(); ok {
			payload = fe
		}
		msgs = append(msgs, fmt.Sprintf("%v tenant=%v trace=%+v %#v", msg.Kind, msg.Tenant, msg.Trace, payload))
		msg.Release()
	}
}

// splitReader delivers a stream in two reads at most: the bytes before at,
// then the rest.
type splitReader struct {
	head, tail []byte
}

func newSplitReader(stream []byte, at int) *splitReader {
	return &splitReader{head: stream[:at], tail: stream[at:]}
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.head) == 0 {
		s.head, s.tail = s.tail, nil
	}
	if len(s.head) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.head)
	s.head = s.head[n:]
	return n, nil
}

// readOnly makes a reader a stream for NewConn; nothing here writes.
type readOnly struct{ io.Reader }

func (readOnly) Write(p []byte) (int, error) { return 0, errors.New("read-only stream") }

// checkDeliveryShapes reads stream through Conn.Read, and through
// Conn.ReadInto at every dst size that matters, under every delivery
// shape and requires the reference's messages and terminal error each
// time. split picks where the two-read shape cuts the stream. The dst
// sizes are nil and empty (ReadInto is Read); for every chunk length the
// reference saw, one byte short of it, exactly it, and larger; and 8 KiB,
// so that a chunk the reference never completes — a stream that ends in
// its prefix or its data — still reaches the receive-into path.
func checkDeliveryShapes(t *testing.T, stream []byte, split int) {
	t.Helper()
	wantMsgs, wantErr, chunkLens := drain(&refReader{r: bytes.NewReader(stream)})
	if len(stream) > 0 {
		split %= len(stream) + 1
	} else {
		split = 0
	}
	shapes := []struct {
		name string
		r    func() io.Reader
	}{
		{"whole", func() io.Reader { return bytes.NewReader(stream) }},
		{"one byte at a time", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) }},
		{fmt.Sprintf("split at %d of %d", split, len(stream)), func() io.Reader { return newSplitReader(stream, split) }},
		{"last bytes with EOF", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) }},
	}
	dsts := map[string][]byte{"nil": nil, "0": {}, "8192": make([]byte, 8192)}
	for _, n := range chunkLens {
		for _, size := range []int{n - 1, n, n + 100} {
			if size >= 0 {
				dsts[strconv.Itoa(size)] = make([]byte, size)
			}
		}
	}
	for _, shape := range shapes {
		readers := map[string]frameReader{"Read": NewConn(readOnly{shape.r()})}
		for size, dst := range dsts {
			readers["ReadInto, dst "+size] = &intoReader{t: t, c: NewConn(readOnly{shape.r()}), dst: dst}
		}
		for how, r := range readers {
			gotMsgs, gotErr, _ := drain(r)
			if gotErr != wantErr {
				t.Errorf("%s, %s: terminal error %q, reference %q", shape.name, how, gotErr, wantErr)
			}
			if len(gotMsgs) != len(wantMsgs) {
				t.Errorf("%s, %s: %d messages, reference %d", shape.name, how, len(gotMsgs), len(wantMsgs))
				continue
			}
			for i := range gotMsgs {
				if gotMsgs[i] != wantMsgs[i] {
					t.Errorf("%s, %s: message %d is\n  %s\nreference\n  %s", shape.name, how, i, gotMsgs[i], wantMsgs[i])
				}
			}
		}
	}
}

// chunkFrameBytes is one binary FileChunk frame of n patterned bytes.
func chunkFrameBytes(offset int64, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + n)
	}
	return frameBytes(CodecBinary, binaryBody(KindFileChunk, append(binary.BigEndian.AppendUint64(nil, uint64(offset)), data...)))
}

// cfpAndBidFrames is the per-open exchange as it crosses the wire: a plain
// CFP frame, and a Bid frame under both header slots.
func cfpAndBidFrames() (cfp, bid []byte) {
	p := hotCtlPayloads
	return slotFrame(slotPlain, ctlPayload{p[0].kind, p[0].payload}),
		slotFrame(slotTenantTrace, ctlPayload{p[1].kind, p[1].payload})
}

func TestReadIsIndependentOfDeliveryShape(t *testing.T) {
	cfp, bid := cfpAndBidFrames()
	handoff := slotFrame(slotTrace, ctlPayload{KindShardHandoff, ShardHandoff{From: 1, Direction: "heal", // a body past the read-ahead
		Infos:   []ecnp.RMInfo{{ID: 5, Capacity: 1, Addr: strings.Repeat("h", 2*readAhead)}},
		Entries: []ShardEntry{{File: 1, RMs: []ids.RMID{5}}}}})
	small := chunkFrameBytes(64, 100)              // whole frame inside the read-ahead
	large := chunkFrameBytes(4096, 8*readAhead+17) // body far past it
	edge := chunkFrameBytes(0, readAhead-headerSize-len(binaryBody(KindFileChunk, make([]byte, 8))))
	var torn bytes.Buffer
	if err := NewConn(&torn).WriteTorn(KindCount, Count{N: 42}); err != nil {
		t.Fatal(err)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// Chunks ReadInto must refuse to receive into dst, each long enough to
	// be peeked at: an undefined flag bit, and a trace slot the body ends
	// inside.
	badFlags := chunkFrameBytes(0, 40)
	badFlags[headerSize] |= 0x80
	cutTrace := frameBytes(CodecBinary, append(slotTrace.header()[:flagsSize+10:flagsSize+10], 0, 1, 2))
	// A chunk under both slots, whose prefix is the longest there is.
	slotted := frameBytes(CodecBinary, slotTenantTrace.body(KindFileChunk, chunkFrameBytes(8, 2000)[headerSize+flagsSize+kindSize:]))

	cases := []struct {
		name   string
		stream []byte
		// splits are the cut points worth naming; every case also runs
		// with a cut after each of its first 24 bytes and before each of
		// its last 24.
		splits []int
		// msgs and errIs pin the reference's own answer, so the table
		// says what is expected and not only that two readers agree.
		msgs  int
		errIs error
		errAs any
	}{
		{name: "empty stream", stream: nil, msgs: 0, errIs: io.EOF},
		{name: "two control frames in one read", stream: join(cfp, bid), splits: []int{len(cfp)}, msgs: 2, errIs: io.EOF},
		{name: "counted layout larger than the read-ahead between control frames", stream: join(cfp, handoff, bid),
			splits: []int{len(cfp) + readAhead, len(cfp) + len(handoff)}, msgs: 3, errIs: io.EOF},
		{name: "chunk inside the read-ahead, then a control frame", stream: join(small, cfp), msgs: 2, errIs: io.EOF},
		{name: "chunk whose first bytes arrive with its header", stream: join(large, bid),
			splits: []int{headerSize + 1, headerSize + 300, readAhead - 1, readAhead, readAhead + 1, len(large) - 1, len(large)}, msgs: 2, errIs: io.EOF},
		{name: "frame that ends exactly at the read-ahead", stream: join(edge, cfp, edge), splits: []int{readAhead}, msgs: 3, errIs: io.EOF},
		{name: "control frames across the read-ahead boundary", stream: bytes.Repeat(cfp, 40), msgs: 40, errIs: io.EOF},
		{name: "EOF inside a header", stream: join(cfp, bid[:3]), msgs: 1, errIs: io.ErrUnexpectedEOF},
		{name: "EOF after a header, before any body byte", stream: join(cfp, bid[:headerSize]), msgs: 1, errIs: io.EOF},
		{name: "EOF inside a body", stream: join(cfp, bid[:headerSize+9]), msgs: 1, errIs: io.ErrUnexpectedEOF},
		{name: "EOF inside a large body", stream: join(cfp, large[:len(large)-5]), splits: []int{len(cfp) + readAhead}, msgs: 1, errIs: io.ErrUnexpectedEOF},
		{name: "EOF after a chunk's header, before any body byte", stream: join(cfp, large[:headerSize]), msgs: 1, errIs: io.EOF},
		{name: "EOF inside a chunk's prefix", stream: join(cfp, large[:headerSize+7]), msgs: 1, errIs: io.ErrUnexpectedEOF},
		{name: "EOF just behind a chunk's prefix", stream: join(small, large[:headerSize+11]), msgs: 1, errIs: io.ErrUnexpectedEOF},
		{name: "slotted chunks, then EOF just behind the longest prefix", stream: join(slotted, small, slotted, slotted[:maxChunkPrefixLen]),
			msgs: 3, errIs: io.ErrUnexpectedEOF},
		{name: "chunk with an unknown flag bit", stream: join(small, badFlags, cfp), msgs: 1, errAs: new(*CodecError)},
		{name: "body that ends inside its trace slot", stream: join(small, cutTrace), msgs: 1, errAs: new(*CodecError)},
		{name: "torn frame", stream: torn.Bytes(), msgs: 0, errIs: io.ErrUnexpectedEOF},
		{name: "oversized declared length, header only", stream: join(cfp, []byte{0xff, 0xff, 0xff, 0xff, byte(CodecBinary)}), msgs: 1, errAs: new(*FrameTooLargeError)},
		{name: "oversized declared length, bytes behind it", stream: join([]byte{0x00, 0x40, 0x00, 0x01, 0}, cfp), msgs: 0, errAs: new(*FrameTooLargeError)},
		{name: "unknown codec tag", stream: join(cfp, frameBytes(Codec(200), []byte{1, 2, 3}), cfp), msgs: 1, errAs: new(*CodecError)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The expectation itself, on the plain whole-stream shape.
			c := NewConn(readOnly{bytes.NewReader(tc.stream)})
			got := 0
			var err error
			for {
				var msg Msg
				if msg, err = c.Read(); err != nil {
					break
				}
				msg.Release()
				got++
			}
			if got != tc.msgs {
				t.Errorf("%d messages before the error, want %d", got, tc.msgs)
			}
			if tc.errIs != nil && !errors.Is(err, tc.errIs) {
				t.Errorf("terminal error %v, want %v in its chain", err, tc.errIs)
			}
			if tc.errAs != nil && !errors.As(err, tc.errAs) {
				t.Errorf("terminal error %T (%v), want %T", err, err, tc.errAs)
			}
			// Then every shape against the reference.
			splits := append([]int(nil), tc.splits...)
			for i := 0; i <= 24 && i <= len(tc.stream); i++ {
				splits = append(splits, i, len(tc.stream)-i)
			}
			for _, at := range splits {
				checkDeliveryShapes(t, tc.stream, at)
			}
		})
	}
}

// TestCleanEOFIsBareEOF: servers and stream loops compare the error at a
// frame boundary with ==, so it must be io.EOF itself, not a wrapper.
func TestCleanEOFIsBareEOF(t *testing.T) {
	stream := bytes.Repeat(slotFrame(slotPlain, ctlPayload{KindAck, Ack{}}), 3)
	c := NewConn(readOnly{bytes.NewReader(stream)})
	for i := 0; i < 3; i++ {
		if _, err := c.Read(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := c.Read(); err != io.EOF {
		t.Fatalf("error at the frame boundary is %#v, want io.EOF itself", err)
	}
}

// countingReader counts the reads a Conn issues against its stream; each
// delivers at most one of the segments it was given, the way a socket
// delivers what one write(2) sent.
type countingReader struct {
	segments [][]byte
	reads    int
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.segments) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.segments[0])
	if r.segments[0] = r.segments[0][n:]; len(r.segments[0]) == 0 {
		r.segments = r.segments[1:]
	}
	return n, nil
}

// TestControlFrameIsOneRead is the point of the read-ahead: a frame that
// fits it costs one read of the stream, a frame that arrived behind its
// predecessor costs none, and a body too large for it is read straight
// into its own buffer — nothing past the frame's end is taken, so a
// stream of chunks stays frame-aligned at two reads each, as before —
// also when ReadInto receives the chunks into the caller's buffer.
func TestControlFrameIsOneRead(t *testing.T) {
	cfp, bid := cfpAndBidFrames()
	large := chunkFrameBytes(0, 128*1024)

	for _, dst := range [][]byte{nil, make([]byte, 128*1024)} {
		r := &countingReader{segments: [][]byte{cfp, bytes.Join([][]byte{bid, cfp}, nil), large, large, bid}}
		c := NewConn(readOnly{r})
		for i, want := range []struct {
			kind  Kind
			reads int // cumulative
		}{
			{KindCFP, 1},       // one frame, one read
			{KindBid, 2},       // two frames in one segment: one read ...
			{KindCFP, 2},       // ... and none
			{KindFileChunk, 4}, // head with the header, the rest straight into the buffer
			{KindFileChunk, 6},
			{KindBid, 7},
		} {
			msg, err := c.ReadInto(dst)
			if err != nil {
				t.Fatalf("dst %d bytes, frame %d: %v", len(dst), i, err)
			}
			if msg.Kind != want.kind {
				t.Fatalf("dst %d bytes, frame %d is %v, want %v", len(dst), i, msg.Kind, want.kind)
			}
			msg.Release()
			if r.reads != want.reads {
				t.Fatalf("dst %d bytes: after frame %d (%v) the stream has been read %d times, want %d", len(dst), i, want.kind, r.reads, want.reads)
			}
			if got := c.Buffered(); (i == 1) != (got > 0) {
				t.Fatalf("dst %d bytes: after frame %d Buffered() = %d", len(dst), i, got)
			}
		}
	}
}
