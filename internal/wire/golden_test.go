package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// goldenFrames pins the exact bytes of one untenanted, untraced frame of
// every kind. The twelve rows marked "parent" were produced by the
// hand-written per-kind encoder this codec replaced (appendBinary and
// WriteChunk at commit 1d604a1) and committed as they came out, which is
// how "the existing layouts did not move" is shown; only their codec tag
// has moved since: from 1 to 4 when Error and OpenResult gained their
// refusal code, and to 5 when Open gained a write's size (the Open row,
// once a parent row too, changed with it). The rest are the layouts
// codec.go's header documents, byte for byte. A row changes only together
// with the codec tag. A deleted kind keeps its number and has no row.
var goldenFrames = []struct {
	kind    Kind
	payload any
	frame   string // hex
}{
	{KindError, Error{Text: "disk exploded"},
		"00000011" + "05" + "00" + "0000" + "00" + "6469736b206578706c6f646564"},
	{KindRegisterRM, RegisterRM{Info: ecnp.RMInfo{ID: 3, Capacity: units.Mbps(2), StorageBytes: 1 << 34, Addr: "127.0.0.1:7301"}, Files: []ids.FileID{1, 2}},
		"00000035" + "05" + "00" + "0001" + "00000003" + "410e848000000000" + "0000000400000000" + "0000000e" + "3132372e302e302e313a37333031" +
			"00000002" + "00000001" + "00000002"},
	{KindLookup, FileRef{File: 42}, // parent
		"00000007" + "05" + "00" + "0002" + "0000002a"},
	{KindRMsWithout, FileRef{File: 42},
		"00000007" + "05" + "00" + "0003" + "0000002a"},
	{KindAddReplica, ReplicaRef{File: 42, RM: 3},
		"0000000b" + "05" + "00" + "0004" + "0000002a" + "00000003"},
	{KindRemoveReplica, ReplicaRef{File: 42, RM: 3},
		"0000000b" + "05" + "00" + "0005" + "0000002a" + "00000003"},
	{KindBeginReplication, BeginReplication{File: 42, RM: 3, MaxTotal: 8},
		"00000013" + "05" + "00" + "0006" + "0000002a" + "00000003" + "0000000000000008"},
	{KindEndReplication, EndReplication{File: 42, RM: 3, Commit: true},
		"0000000c" + "05" + "00" + "0007" + "0000002a" + "00000003" + "01"},
	{KindReplicaCount, FileRef{File: 42},
		"00000007" + "05" + "00" + "0008" + "0000002a"},
	{KindRMs, nil,
		"00000003" + "05" + "00" + "0009"},
	{KindAck, Ack{}, // parent
		"00000003" + "05" + "00" + "000a"},
	{KindRMList, RMList{RMs: []ids.RMID{1, 2, 3}}, // parent
		"0000000f" + "05" + "00" + "000b" + "00000001" + "00000002" + "00000003"},
	{KindRMInfoList, RMInfoList{Infos: []ecnp.RMInfo{{ID: 1, Capacity: units.Mbps(2)}, {ID: 2, Capacity: units.Mbps(3), Addr: "b:2"}}},
		"0000003a" + "05" + "00" + "000c" + "00000002" +
			"00000001" + "410e848000000000" + "0000000000000000" + "00000000" +
			"00000002" + "4116e36000000000" + "0000000000000000" + "00000003" + "623a32"},
	{KindCount, Count{N: 3},
		"0000000b" + "05" + "00" + "000d" + "0000000000000003"},
	{KindCFP, ecnp.CFP{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Tenant: 4}, // parent
		"00000023" + "05" + "00" + "000e" + "0000000000000009" + "00000001" + "410e848000000000" + "4072c00000000000" + "00000004"},
	{KindBid, selection.Bid{RM: 7, Rem: -units.Mbps(2), Trend: 1234.5, OccBias: 0.75, Req: units.Mbps(2), // parent
		HasReplica: true, Assured: units.Mbps(3), Ceil: units.Mbps(9), TenantShare: 0.125},
		"00000040" + "05" + "00" + "000f" + "00000007" + "c10e848000000000" + "40934a0000000000" + "3fe8000000000000" +
			"410e848000000000" + "01" + "4116e36000000000" + "41312a8800000000" + "3fc0000000000000"},
	{KindOpen, ecnp.OpenRequest{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Firm: true, Tenant: 4, SizeBytes: units.MB},
		"0000002c" + "05" + "00" + "0010" + "0000000000000009" + "00000001" + "410e848000000000" + "4072c00000000000" + "01" + "00000004" + "00000000000f4240"},
	{KindOpenResult, ecnp.OpenResult{OK: false, Code: ecnp.ErrFirmCapacity, Reason: "insufficient bandwidth"},
		"0000001b" + "05" + "00" + "0011" + "00" + "07" + "696e73756666696369656e742062616e647769647468"},
	{KindClose, CloseReq{Request: 9}, // parent
		"0000000b" + "05" + "00" + "0012" + "0000000000000009"},
	{KindOfferReplica, ecnp.ReplicaOffer{Replication: 7, File: 1, SizeBytes: units.MB, Bitrate: units.Mbps(2), DurationSec: 300, Rate: units.Mbps(3), Source: 2},
		"00000033" + "05" + "00" + "0013" + "0000000000000007" + "00000001" + "00000000000f4240" + "410e848000000000" +
			"4072c00000000000" + "4116e36000000000" + "00000002"},
	{KindOfferReply, OfferReply{Accepted: true},
		"00000004" + "05" + "00" + "0014" + "01"},
	{KindFinishReplica, FinishReplica{Replication: 7, Committed: true},
		"0000000c" + "05" + "00" + "0015" + "0000000000000007" + "01"},
	{KindReadFile, ReadFile{File: 7, ChunkSize: 65536, Offset: 4096, Request: 99, Length: 131072}, // parent
		"00000027" + "05" + "00" + "0017" + "00000007" + "0000000000010000" + "0000000000001000" + "0000000000000063" + "0000000000020000"},
	{KindFileChunk, FileChunk{Offset: 128, Data: []byte{1, 2, 3}}, // parent
		"0000000e" + "05" + "00" + "0018" + "0000000000000080" + "010203"},
	{KindFileEnd, FileEnd{Size: 131, Checksum: 0xdeadbeef}, // parent
		"00000013" + "05" + "00" + "0019" + "0000000000000083" + "00000000deadbeef"},
	{KindWriteFile, WriteFile{File: 3, SizeBytes: 1 << 30, Replication: 12}, // parent
		"00000017" + "05" + "00" + "001a" + "00000003" + "0000000040000000" + "000000000000000c"},
	{KindHeartbeat, Heartbeat{RM: 5}, // parent
		"00000007" + "05" + "00" + "001b" + "00000005"},
	{KindKeepalive, Keepalive{Request: 41}, // parent
		"0000000b" + "05" + "00" + "001c" + "0000000000000029"},
	{KindShardBeat, ShardBeat{Shard: 2},
		"00000007" + "05" + "00" + "001d" + "00000002"},
	{KindShardMirror, ShardMirror{Op: "EndReplication", File: 42, RM: 3, MaxTotal: 8, Commit: true},
		"00000026" + "05" + "00" + "001e" + "0000000e" + "456e645265706c69636174696f6e" + "0000002a" + "00000003" + "0000000000000008" + "01"},
	{KindShardHandoff, ShardHandoff{From: 1, Direction: "heal",
		Infos:   []ecnp.RMInfo{{ID: 3, Capacity: units.Mbps(2), Addr: "a:1"}},
		Entries: []ShardEntry{{File: 42, RMs: []ids.RMID{3, 5}}, {File: 43}}},
		"0000004a" + "05" + "00" + "001f" + "00000001" + "00000004" + "6865616c" +
			"00000001" + "00000003" + "410e848000000000" + "0000000000000000" + "00000003" + "613a31" +
			"00000002" + "0000002a" + "00000002" + "00000003" + "00000005" + "0000002b" + "00000000"},
}

// codedFrames pins the refusal byte beside goldenFrames' rows, whose
// Error carries none: a served refusal, and an admitted open, whose code
// is zero.
var codedFrames = []struct {
	kind    Kind
	payload any
	frame   string // hex
}{
	{KindError, Error{Code: ecnp.ErrReplicaCap, Text: "cap"},
		"00000007" + "05" + "00" + "0000" + "01" + "636170"},
	{KindOpenResult, ecnp.OpenResult{OK: true},
		"00000005" + "05" + "00" + "0011" + "01" + "00"},
}

// TestGoldenFrames holds the encoder to goldenFrames, every named kind and
// in enum order so none can be missing, and to codedFrames, and the
// decoder to reading each row back to the value that made it.
func TestGoldenFrames(t *testing.T) {
	var kinds []Kind
	for k := KindError; k <= KindShardHandoff; k++ {
		if k != kindDeleted {
			kinds = append(kinds, k)
		}
	}
	if len(goldenFrames) != len(kinds) {
		t.Fatalf("%d golden rows for %d kinds", len(goldenFrames), len(kinds))
	}
	for i, row := range append(goldenFrames, codedFrames...) {
		if i < len(goldenFrames) && row.kind != kinds[i] {
			t.Fatalf("row %d is %v, want %v: one row per kind, in enum order", i, row.kind, kinds[i])
		}
		want, err := hex.DecodeString(row.frame)
		if err != nil {
			t.Fatalf("%v: %v", row.kind, err)
		}
		var buf bytes.Buffer
		c := NewConn(&buf)
		if err := c.Write(row.kind, row.payload); err != nil {
			t.Fatalf("%v: %v", row.kind, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%v frame\n got %x\nwant %x", row.kind, buf.Bytes(), want)
		}
		msg, err := NewConn(bytes.NewBuffer(want)).Read()
		if err != nil {
			t.Errorf("%v: reading the golden frame: %v", row.kind, err)
			continue
		}
		got := msg.Payload
		if ch, ok := msg.Chunk(); ok {
			got = *ch
		} else if rq, ok := msg.ReadReq(); ok {
			got = rq
		} else if fe, ok := msg.FileEnd(); ok {
			got = fe
		}
		if msg.Kind != row.kind || !samePayload(got, row.payload) {
			t.Errorf("%v golden frame decodes to %v %#v, want %#v", row.kind, msg.Kind, got, row.payload)
		}
		msg.Release()
	}
}
