package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"testing"
)

// goldenRecs and goldenCtxs are the fixed inputs behind goldenFrames:
// a record with every field set, one with negative time and all-ones
// fields, and a zero record; contexts mixing set and zero ids.
var (
	goldenRecs = []Record{
		{T: 1, Topo: 0x01020304, Victim: 5, MF: 0xA5A5, Src: 0x0A000001, Proto: 6},
		{T: -2, Topo: 0xFFFFFFFF, Victim: 255, MF: 0xFFFF, Src: 0xC0A80101, Proto: 17},
		{},
	}
	goldenCtxs = []TraceContext{
		{ID: 0xDEADBEEFCAFEF00D, Sent: 1_700_000_000_000_000_000, Routed: 1_700_000_000_000_000_500},
		{},
		{ID: 7, Sent: -1},
	}
)

const goldenOrigin, goldenSeq = 0xFEEDFACE12345678, 0x0102030405060708

// goldenFrames are every record frame type's encoding of the first n
// golden records, captured from the per-type encoders the layout table
// replaced. A layout that drifts by one byte fails here.
var goldenFrames = []struct {
	ftype uint8
	n     int
	hex   string
}{
	{TypeRecords, 0, "d05e01010000"},
	{TypeSealed, 0, "d05e0104000c01020304050607083fca88c5"},
	{TypeTracedRecords, 0, "d05e01050000"},
	{TypeTracedSealed, 0, "d05e0106000c01020304050607083fca88c5"},
	{TypeForwarded, 0, "d05e01070014feedface1234567801020304050607083e3691e4"},
	{TypeTracedForwarded, 0, "d05e010a0014feedface1234567801020304050607083e3691e4"},
	{TypeRecords, 1, "d05e0101001800000000000000010102030400000005a5a50a0000010600"},
	{TypeSealed, 1, "d05e01040024010203040506070800000000000000010102030400000005a5a50a0000010600df1960e4"},
	{TypeTracedRecords, 1, "d05e0105002800000000000000010102030400000005a5a50a0000010600deadbeefcafef00d17979cfe362a0000"},
	{TypeTracedSealed, 1, "" +
		"d05e01060034010203040506070800000000000000010102030400000005a5a50a0000010600deadbeefcafef00d1797" +
		"9cfe362a00001ccfa69f"},
	{TypeForwarded, 1, "" +
		"d05e0107002cfeedface12345678010203040506070800000000000000010102030400000005a5a50a0000010600e4a1" +
		"5813"},
	{TypeTracedForwarded, 1, "" +
		"d05e010a0044feedface12345678010203040506070800000000000000010102030400000005a5a50a0000010600dead" +
		"beefcafef00d17979cfe362a000017979cfe362a01f4fd5f11f8"},
	{TypeRecords, 3, "" +
		"d05e0101004800000000000000010102030400000005a5a50a0000010600fffffffffffffffeffffffff000000ffffff" +
		"c0a801011100000000000000000000000000000000000000000000000000"},
	{TypeSealed, 3, "" +
		"d05e01040054010203040506070800000000000000010102030400000005a5a50a0000010600fffffffffffffffeffff" +
		"ffff000000ffffffc0a801011100000000000000000000000000000000000000000000000000a0b82220"},
	{TypeTracedRecords, 3, "" +
		"d05e0105007800000000000000010102030400000005a5a50a0000010600deadbeefcafef00d17979cfe362a0000ffff" +
		"fffffffffffeffffffff000000ffffffc0a8010111000000000000000000000000000000000000000000000000000000" +
		"00000000000000000000000000000000000000000007ffffffffffffffff"},
	{TypeTracedSealed, 3, "" +
		"d05e01060084010203040506070800000000000000010102030400000005a5a50a0000010600deadbeefcafef00d1797" +
		"9cfe362a0000fffffffffffffffeffffffff000000ffffffc0a801011100000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000000000000000000007ffffffffffffffff9e87f8ec"},
	{TypeForwarded, 3, "" +
		"d05e0107005cfeedface12345678010203040506070800000000000000010102030400000005a5a50a0000010600ffff" +
		"fffffffffffeffffffff000000ffffffc0a80101110000000000000000000000000000000000000000000000000095e0" +
		"a67d"},
	{TypeTracedForwarded, 3, "" +
		"d05e010a00a4feedface12345678010203040506070800000000000000010102030400000005a5a50a0000010600dead" +
		"beefcafef00d17979cfe362a000017979cfe362a01f4fffffffffffffffeffffffff000000ffffffc0a8010111000000" +
		"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"000000000007ffffffffffffffff00000000000000004398809a"},
}

func goldenTraced(n int) []TracedRecord {
	trs := make([]TracedRecord, n)
	for i := range trs {
		trs[i] = TracedRecord{Record: goldenRecs[i], Ctx: goldenCtxs[i]}
	}
	return trs
}

// TestRecordFrameGoldenBytes pins the six record frame layouts to the
// bytes the per-type encoders produced, and checks each decodes back
// to the same records and contexts.
func TestRecordFrameGoldenBytes(t *testing.T) {
	for _, g := range goldenFrames {
		l, _ := FrameLayout(g.ftype)
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		trs := goldenTraced(g.n)
		if got := AppendRecordFrame(nil, g.ftype, goldenOrigin, goldenSeq, trs); !bytes.Equal(got, want) {
			t.Errorf("%s n=%d: encoded\n %x\nwant\n %x", l, g.n, got, want)
		}
		// The []Record and wrapper entry points encode the same bytes.
		var viaWrapper []byte
		switch g.ftype {
		case TypeRecords:
			viaWrapper = AppendFrame(nil, goldenRecs[:g.n])
		case TypeSealed:
			viaWrapper = AppendSealed(nil, goldenSeq, goldenRecs[:g.n])
		case TypeTracedSealed:
			viaWrapper = AppendTracedSealed(nil, goldenSeq, trs)
		}
		if viaWrapper != nil && !bytes.Equal(viaWrapper, want) {
			t.Errorf("%s n=%d: wrapper encoded %x, want %x", l, g.n, viaWrapper, want)
		}

		var s Slab
		origin, seq, err := s.AppendPayload(g.ftype, want[HeaderSize:])
		if err != nil {
			t.Fatalf("%s n=%d: decode: %v", l, g.n, err)
		}
		var wantOrigin, wantSeq uint64
		if l.Origin {
			wantOrigin = goldenOrigin
		}
		if l.Sealed {
			wantSeq = goldenSeq
		}
		if origin != wantOrigin || seq != wantSeq {
			t.Errorf("%s n=%d: origin/seq %#x/%#x, want %#x/%#x", l, g.n, origin, seq, wantOrigin, wantSeq)
		}
		if !slices.Equal(s.Recs, goldenRecs[:g.n]) {
			t.Errorf("%s n=%d: records %+v, want %+v", l, g.n, s.Recs, goldenRecs[:g.n])
		}
		if l.Ctx == 0 {
			if s.Ctxs != nil {
				t.Errorf("%s n=%d: untraced frame created a context lane", l, g.n)
			}
			continue
		}
		wantCtxs := make([]TraceContext, g.n)
		for i := range wantCtxs {
			wantCtxs[i] = TraceContext{ID: goldenCtxs[i].ID, Sent: goldenCtxs[i].Sent}
			if l.Ctx == FwdCtxSize {
				// The hop lane carries routed, and every record of the
				// frame, traced or not, gets the frame's origin.
				wantCtxs[i].Routed, wantCtxs[i].Origin = goldenCtxs[i].Routed, goldenOrigin
			}
		}
		if !slices.Equal(s.Ctxs, wantCtxs) {
			t.Errorf("%s n=%d: contexts %+v, want %+v", l, g.n, s.Ctxs, wantCtxs)
		}
	}
}

// TestRecordFrameMixedSlabLanes decodes every untraced golden frame
// into a slab after and before a traced one: the untraced records get
// zero contexts in both orders, and the traced ones keep theirs.
func TestRecordFrameMixedSlabLanes(t *testing.T) {
	traced := AppendRecordFrame(nil, TypeTracedRecords, 0, 0, goldenTraced(1))[HeaderSize:]
	for _, g := range goldenFrames {
		if l, _ := FrameLayout(g.ftype); l.Ctx != 0 || g.n == 0 {
			continue
		}
		frame, _ := hex.DecodeString(g.hex)
		for _, tracedFirst := range []bool{true, false} {
			var s Slab
			first, second := uint8(TypeTracedRecords), g.ftype
			p1, p2 := traced, frame[HeaderSize:]
			if !tracedFirst {
				first, second, p1, p2 = second, first, p2, p1
			}
			if _, _, err := s.AppendPayload(first, p1); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.AppendPayload(second, p2); err != nil {
				t.Fatal(err)
			}
			if len(s.Ctxs) != g.n+1 {
				t.Fatalf("type %d traced-first=%v: %d contexts for %d records", g.ftype, tracedFirst, len(s.Ctxs), g.n+1)
			}
			tracedAt := 0
			if !tracedFirst {
				tracedAt = g.n
			}
			for i, c := range s.Ctxs {
				want := TraceContext{}
				if i == tracedAt {
					want = TraceContext{ID: goldenCtxs[0].ID, Sent: goldenCtxs[0].Sent}
				}
				if c != want {
					t.Errorf("type %d traced-first=%v: ctx %d = %+v, want %+v", g.ftype, tracedFirst, i, c, want)
				}
			}
		}
	}
}

// TestRecordFrameCapacities pins each record frame type's capacity
// under the 16-bit payload length, which NewClient and the cluster's
// ForwardBatch check against, and that SlabCap holds the largest.
func TestRecordFrameCapacities(t *testing.T) {
	want := map[uint8]int{
		TypeRecords: 2730, TypeSealed: 2730,
		TypeTracedRecords: 1638, TypeTracedSealed: 1638,
		TypeForwarded: 2729, TypeTracedForwarded: 1364,
	}
	for ftype, n := range want {
		if got := MaxRecords(ftype); got != n {
			t.Errorf("MaxRecords(%d) = %d, want %d", ftype, got, n)
		}
		if MaxRecords(ftype) > SlabCap {
			t.Errorf("type %d frames exceed SlabCap", ftype)
		}
	}
	for _, ftype := range []uint8{TypeHello, TypeAck, TypeGossip} {
		if _, ok := FrameLayout(ftype); ok || MaxRecords(ftype) != 0 {
			t.Errorf("control frame type %d has a record layout", ftype)
		}
	}
}

// FuzzRecordPayload throws arbitrary payloads at the one slab decoder
// under every record frame type: it must never panic, must reject with
// ErrBadFrame or ErrSlabFull only, and an accepted payload must
// re-encode byte-identical under the same type. The reserved byte of
// each record is the one bit not carried (as in FuzzRecordRoundTrip):
// where it is non-zero, the re-encoding must instead decode back to
// the same records, contexts, origin and seq.
func FuzzRecordPayload(f *testing.F) {
	trs := goldenTraced(len(goldenRecs))
	for _, ftype := range []uint8{TypeRecords, TypeTracedRecords, TypeSealed, TypeTracedSealed, TypeForwarded, TypeTracedForwarded} {
		for _, n := range []int{0, 1, len(trs)} {
			f.Add(ftype, AppendRecordFrame(nil, ftype, goldenOrigin, goldenSeq, trs[:n])[HeaderSize:])
		}
	}
	f.Fuzz(func(t *testing.T, ftype uint8, payload []byte) {
		var s Slab
		origin, seq, err := s.AppendPayload(ftype, payload)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && err != ErrSlabFull {
				t.Fatalf("type %d: unexpected error class: %v", ftype, err)
			}
			return
		}
		l, _ := FrameLayout(ftype)
		if (s.Ctxs != nil) != (l.Ctx > 0) || (s.Ctxs != nil && len(s.Ctxs) != len(s.Recs)) {
			t.Fatalf("%s: %d records with %d contexts (lane %v)", l, len(s.Recs), len(s.Ctxs), s.Ctxs != nil)
		}
		decoded := slabTraced(&s)
		reenc := AppendRecordFrame(nil, ftype, origin, seq, decoded)
		if reservedZero(l, payload) {
			if !bytes.Equal(reenc[HeaderSize:], payload) {
				t.Fatalf("%s: re-encoded\n %x\nwant\n %x", l, reenc[HeaderSize:], payload)
			}
			return
		}
		var again Slab
		o2, s2, err := again.AppendPayload(ftype, reenc[HeaderSize:])
		if err != nil {
			t.Fatalf("%s: re-decode: %v", l, err)
		}
		if o2 != origin || s2 != seq || !slices.Equal(slabTraced(&again), decoded) {
			t.Fatalf("%s: re-decode differs", l)
		}
	})
}

// reservedZero reports whether every record's reserved byte in a
// well-formed payload of layout l is zero.
func reservedZero(l Layout, payload []byte) bool {
	tail := 0
	if l.Sealed {
		tail = 4
	}
	for off := l.overhead() - tail; off < len(payload)-tail; off += l.stride() {
		if payload[off+RecordSize-1] != 0 {
			return false
		}
	}
	return true
}
