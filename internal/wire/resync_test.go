package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

// plainRecords builds records whose encodings contain no 0xD0 byte, so
// resync scans cannot hit a false magic inside record payloads and the
// expected recovery point is exact.
func plainRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			T: eventq.Time(i % 100), Topo: 0x01020304,
			Victim: topology.NodeID(i % 64),
			MF:     uint16(i % 0x50),
			Src:    packet.AddrFrom4(10, 0, 1, byte(i)),
			Proto:  packet.ProtoTCPSYN,
		}
	}
	return recs
}

// TestReaderResyncAcrossCorruption corrupts one header byte of a
// mid-stream frame at every header offset and asserts the resync
// reader recovers every record of every later frame, with the damage
// visible in Resyncs/SkippedBytes.
func TestReaderResyncAcrossCorruption(t *testing.T) {
	const perFrame, frames, corruptFrame = 3, 10, 4
	recs := plainRecords(perFrame * frames)
	var stream []byte
	frameStart := make([]int, frames)
	for f := 0; f < frames; f++ {
		frameStart[f] = len(stream)
		stream = AppendFrame(stream, recs[f*perFrame:(f+1)*perFrame])
	}

	cases := map[string]struct {
		off  int  // byte offset within the corrupted frame's header
		flip byte // XOR mask
	}{
		"magic byte 0":      {0, 0xFF},
		"magic byte 1":      {1, 0xFF},
		"version":           {2, 0x10},
		"type":              {3, 0x60},
		"length misaligned": {5, 0x01}, // 72 -> 73, not a record multiple
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), stream...)
			b[frameStart[corruptFrame]+tc.off] ^= tc.flip

			r := NewReader(bytes.NewReader(b))
			r.EnableResync()
			trs, err := readRecords(r, math.MaxInt)
			if err != io.EOF {
				t.Fatalf("resync reader died: %v", err)
			}
			got := recordsOf(trs)
			// Frames before the corruption arrive intact; the corrupted
			// frame is skipped; everything after is recovered.
			want := append(append([]Record(nil), recs[:corruptFrame*perFrame]...),
				recs[(corruptFrame+1)*perFrame:]...)
			if len(got) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
				}
			}
			if r.Resyncs() == 0 {
				t.Error("no resync counted")
			}
			if r.SkippedBytes() == 0 {
				t.Error("no skipped bytes counted")
			}
		})
	}
}

// TestReaderResyncThroughInjectedGarbage interleaves garbage runs
// between valid frames: every record survives, every garbage byte is
// accounted for.
func TestReaderResyncThroughInjectedGarbage(t *testing.T) {
	recs := plainRecords(12)
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42, 0x99}
	var b []byte
	var garbageBytes int
	for f := 0; f < 4; f++ {
		b = append(b, garbage...)
		garbageBytes += len(garbage)
		b = AppendFrame(b, recs[f*3:(f+1)*3])
	}
	b = append(b, garbage...) // trailing garbage runs into EOF
	garbageBytes += len(garbage)

	r := NewReader(bytes.NewReader(b))
	r.EnableResync()
	trs, err := readRecords(r, math.MaxInt)
	if err != io.EOF {
		t.Fatalf("want EOF after trailing garbage, got %v", err)
	}
	if len(trs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(trs), len(recs))
	}
	for i, tr := range trs {
		if tr.Record != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, tr.Record, recs[i])
		}
	}
	if got := r.SkippedBytes(); got != uint64(garbageBytes) {
		t.Errorf("skipped %d bytes, want %d", got, garbageBytes)
	}
	if got := r.Resyncs(); got != 5 {
		t.Errorf("resyncs = %d, want 5", got)
	}
}

// TestReaderWithoutResyncStillFailsHard pins the default contract:
// framing errors stay terminal unless resync is opted into.
func TestReaderWithoutResyncStillFailsHard(t *testing.T) {
	b := append([]byte{0xBA, 0xD0}, AppendFrame(nil, plainRecords(2))...)
	r := NewReader(bytes.NewReader(b))
	if _, err := readRecords(r, 1); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
}

// TestReaderCapsEmptyFrameRuns is the regression test for the
// empty-frame spin: a peer streaming valid zero-record frames used to
// spin the record reader forever with no progress or accounting.
func TestReaderCapsEmptyFrameRuns(t *testing.T) {
	var b []byte
	for i := 0; i < MaxEmptyFrames+1; i++ {
		b = AppendFrame(b, nil)
	}
	r := NewReader(bytes.NewReader(b))
	_, err := readRecords(r, 1)
	if !errors.Is(err, ErrEmptyFlood) || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty-frame flood: got %v, want ErrEmptyFlood wrapping ErrBadFrame", err)
	}

	// Runs at or below the cap are tolerated, and a record frame
	// resets the run.
	recs := plainRecords(2)
	b = b[:0]
	for i := 0; i < MaxEmptyFrames; i++ {
		b = AppendFrame(b, nil)
	}
	b = AppendFrame(b, recs[:1])
	for i := 0; i < MaxEmptyFrames; i++ {
		b = AppendFrame(b, nil)
	}
	b = AppendFrame(b, recs[1:])
	trs, err := readRecords(NewReader(bytes.NewReader(b)), math.MaxInt)
	if err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if len(trs) != len(recs) {
		t.Fatalf("decoded %d records after empty runs, want %d", len(trs), len(recs))
	}
	for i, tr := range trs {
		if tr.Record != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, tr.Record, recs[i])
		}
	}
}

func TestSessionFrameRoundTrips(t *testing.T) {
	// Hello.
	b := AppendHello(nil, 0xCAFEBABE, 42)
	ftype, n, err := checkHeader(b)
	if err != nil || ftype != TypeHello || n != HelloPayloadSize {
		t.Fatalf("hello header: type=%d n=%d err=%v", ftype, n, err)
	}
	id, base, err := ParseHello(b[HeaderSize:])
	if err != nil || id != 0xCAFEBABE || base != 42 {
		t.Fatalf("hello round trip: id=%#x base=%d err=%v", id, base, err)
	}

	// Ack.
	b = AppendAck(nil, 12345)
	if ftype, _, err = checkHeader(b); err != nil || ftype != TypeAck {
		t.Fatalf("ack header: type=%d err=%v", ftype, err)
	}
	count, err := ParseAck(b[HeaderSize:])
	if err != nil || count != 12345 {
		t.Fatalf("ack round trip: count=%d err=%v", count, err)
	}

	// Sealed.
	recs := plainRecords(5)
	b = AppendSealed(nil, 99, recs)
	if ftype, _, err = checkHeader(b); err != nil || ftype != TypeSealed {
		t.Fatalf("sealed header: type=%d err=%v", ftype, err)
	}
	_, seq, got, err := decodePayload(TypeSealed, b[HeaderSize:])
	if err != nil || seq != 99 {
		t.Fatalf("sealed round trip: seq=%d err=%v", seq, err)
	}
	for i := range recs {
		if got[i].Record != recs[i] {
			t.Fatalf("sealed record %d mismatch", i)
		}
	}
}

// TestSealedCRCDetectsCorruption flips each payload byte in turn: the
// CRC must reject every single-byte corruption — this is what keeps
// bit flips from being silently tallied as identifications.
func TestSealedCRCDetectsCorruption(t *testing.T) {
	frame := AppendSealed(nil, 7, plainRecords(3))
	for off := HeaderSize; off < len(frame); off++ {
		b := append([]byte(nil), frame...)
		b[off] ^= 0x20
		if _, _, _, err := decodePayload(TypeSealed, b[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("corruption at byte %d not detected: %v", off, err)
		}
	}
	// Control frames are CRC-guarded too.
	hello := AppendHello(nil, 1, 2)
	hello[HeaderSize] ^= 0x01
	if _, _, err := ParseHello(hello[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("hello corruption not detected: %v", err)
	}
	ack := AppendAck(nil, 3)
	ack[HeaderSize] ^= 0x01
	if _, err := ParseAck(ack[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ack corruption not detected: %v", err)
	}
}

// TestNextSkipsControlFramesAndUnwrapsSealed: reading a mixed session
// stream frame by frame and decoding the record frames yields exactly
// the records.
func TestNextSkipsControlFramesAndUnwrapsSealed(t *testing.T) {
	recs := plainRecords(6)
	var b []byte
	b = AppendHello(b, 1, 0)
	b = AppendSealed(b, 0, recs[:4])
	b = AppendAck(b, 4)
	b = AppendFrame(b, recs[4:])
	trs, err := readRecords(NewReader(bytes.NewReader(b)), math.MaxInt)
	if err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if len(trs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(trs), len(recs))
	}
	for i, tr := range trs {
		if tr.Record != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, tr.Record, recs[i])
		}
	}
}
