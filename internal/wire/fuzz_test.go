package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

// FuzzRecordRoundTrip checks Append/Decode are exact inverses for any
// field values (the reserved byte is the only non-carried bit).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(0), uint32(0), uint32(0), uint16(0), uint32(0), uint8(0))
	f.Add(int64(-1), ^uint32(0), ^uint32(0), ^uint16(0), ^uint32(0), ^uint8(0))
	f.Add(int64(1<<40), TopoID("torus-16x16"), uint32(255), uint16(0xA5A5), uint32(0x0A000001), uint8(6))
	f.Fuzz(func(t *testing.T, tick int64, topo, victim uint32, mf uint16, src uint32, proto uint8) {
		r := Record{
			T: eventq.Time(tick), Topo: topo,
			Victim: topology.NodeID(victim), MF: mf,
			Src: packet.Addr(src), Proto: packet.Proto(proto),
		}
		b := AppendRecord(nil, r)
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		// NodeID is a signed int: the uint32 wire field round-trips
		// through the low 32 bits.
		r.Victim = topology.NodeID(uint32(r.Victim))
		if got != r {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	})
}

// FuzzReader throws arbitrary bytes at the stream reader and the slab
// decoder (ReadFrame + Slab.AppendPayload): they must never panic,
// must classify every failure as io.EOF or ErrBadFrame, and everything
// they do decode must re-encode to a parseable stream yielding the
// same records.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, nil))
	f.Add(AppendFrame(nil, []Record{{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}}))
	two := AppendFrame(nil, []Record{{MF: 1}, {MF: 2}})
	f.Add(append(two, AppendFrame(nil, []Record{{Victim: 9}})...))
	f.Add([]byte{0xD0, 0x5E, 1, 1, 0xFF, 0xFF})
	// Mid-stream garbage before a valid magic, and session frames.
	f.Add(append([]byte{0xDE, 0xAD, 0xD0, 0x00}, AppendFrame(nil, []Record{{MF: 3}})...))
	f.Add(append(AppendHello(nil, 7, 0), AppendSealed(nil, 0, []Record{{MF: 4}})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		trs, err := readRecords(NewReader(bytes.NewReader(data)), 1<<16)
		if err != nil && err != io.EOF && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("unexpected error class: %v", err)
		}
		decoded := recordsOf(trs)
		if len(decoded) == 0 {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecords(decoded); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := readRecords(NewReader(&buf), len(decoded))
		if err != nil && err != io.EOF {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) < len(decoded) {
			t.Fatalf("re-decode: %d of %d records", len(again), len(decoded))
		}
		for i, want := range decoded {
			if got := again[i].Record; got != want {
				t.Fatalf("re-decode record %d: got %+v want %+v", i, got, want)
			}
		}
	})
}

// FuzzTraceContext throws arbitrary bytes at the stream reader and the
// slab decoder with contexts kept: they must never panic, must classify
// failures like FuzzReader, and the exporter-facing view of every
// record they decode (id + sent; the cluster-internal hop lane of
// forwarded frames shed) must re-encode to a byte-identical parse.
// Legacy frames (TypeRecords/TypeSealed, the pre-trace corpus shapes)
// must keep round-tripping with exactly zero trace contexts — the
// backward-compat contract of the extension.
func FuzzTraceContext(f *testing.F) {
	f.Add([]byte{})
	legacy := AppendFrame(nil, []Record{{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}})
	f.Add(legacy)
	f.Add(AppendSealed(nil, 0, []Record{{MF: 7}, {MF: 8}}))
	traced := []TracedRecord{
		{Record: Record{T: 1, MF: 2}, Ctx: TraceContext{ID: 3, Sent: 4}},
		{Record: Record{T: 5, MF: 6}},
	}
	f.Add(AppendRecordFrame(nil, TypeTracedRecords, 0, 0, traced))
	f.Add(AppendTracedSealed(nil, 9, traced))
	f.Add(append(AppendHelloFlags(nil, 1, 0, HelloFlagTrace), AppendTracedSealed(nil, 0, traced)...))
	f.Add(append(legacy, AppendRecordFrame(nil, TypeTracedRecords, 0, 0, traced)...))
	// Truncations and bit flips around the traced layouts.
	f.Add(AppendRecordFrame(nil, TypeTracedRecords, 0, 0, traced)[:HeaderSize+RecordSize+TraceCtxSize-1])
	damaged := AppendTracedSealed(nil, 9, traced)
	damaged[HeaderSize+10] ^= 0x80
	f.Add(damaged)
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := readRecords(NewReader(bytes.NewReader(data)), 1<<16)
		if err != nil && err != io.EOF && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if len(decoded) == 0 {
			return
		}
		for i := range decoded {
			decoded[i].Ctx.Routed, decoded[i].Ctx.Origin = 0, 0
		}
		// Re-encode everything as traced frames; the re-parse must be
		// exact, including the records that decoded with zero contexts.
		decoded = decoded[:min(len(decoded), MaxRecords(TypeTracedRecords))]
		reenc := AppendRecordFrame(nil, TypeTracedRecords, 0, 0, decoded)
		var s Slab
		if _, err := s.AppendDatagramFrame(reenc); err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		got := slabTraced(&s)
		for i, want := range decoded {
			if got[i] != want {
				t.Fatalf("re-parse record %d: got %+v want %+v", i, got[i], want)
			}
		}
	})
}

// FuzzResyncReader throws arbitrary bytes at the resync-enabled
// reader: it must never panic, must terminate (every resync consumes
// at least one byte), must never skip-count more bytes than exist, and
// whatever it decodes from frames embedded in garbage must round-trip.
func FuzzResyncReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xD0, 0xD0, 0x5E, 1, 1, 0x00})
	one := AppendFrame(nil, []Record{{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}})
	f.Add(append([]byte("mid-stream garbage"), one...))
	f.Add(append(append(append([]byte{}, one...), 0xFF, 0xD0, 0x5E, 0x00), one...))
	f.Add(append(AppendSealed(nil, 9, []Record{{MF: 8}}), 0xD0, 0x5E))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		r.EnableResync()
		if _, err := readRecords(r, 1<<16); err != nil && err != io.EOF && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if r.SkippedBytes() > uint64(len(data)) {
			t.Fatalf("skipped %d bytes of a %d-byte stream", r.SkippedBytes(), len(data))
		}
		if r.Resyncs() > uint64(len(data)) {
			t.Fatalf("%d resyncs on a %d-byte stream", r.Resyncs(), len(data))
		}
	})
}
