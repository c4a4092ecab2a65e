package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

func sampleRecords(n int) []Record {
	topo := TopoID("torus-8x8")
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			T: eventq.Time(100 + i), Topo: topo,
			Victim: topology.NodeID(i % 64),
			MF:     uint16(i * 257),
			Src:    packet.AddrFrom4(10, 0, byte(i>>8), byte(i)),
			Proto:  packet.ProtoTCPSYN,
		}
	}
	return recs
}

// slabTraced pairs a slab's records with their contexts (zero where the
// slab has no context lane).
func slabTraced(s *Slab) []TracedRecord {
	trs := make([]TracedRecord, len(s.Recs))
	for i, rec := range s.Recs {
		trs[i].Record = rec
		if s.Ctxs != nil {
			trs[i].Ctx = s.Ctxs[i]
		}
	}
	return trs
}

// decodePayload decodes one record frame payload into a standalone
// slab and returns its records paired with their contexts.
func decodePayload(ftype uint8, payload []byte) (origin, seq uint64, trs []TracedRecord, err error) {
	var s Slab
	origin, seq, err = s.AppendPayload(ftype, payload)
	return origin, seq, slabTraced(&s), err
}

// readRecords reads frames until an error or until it holds at least
// limit records, decoding every record frame with Slab.AppendPayload
// and skipping control frames. A clean end of stream is io.EOF.
func readRecords(r *Reader, limit int) ([]TracedRecord, error) {
	var out []TracedRecord
	for len(out) < limit {
		ftype, payload, err := r.ReadFrame()
		if err != nil {
			return out, err
		}
		if _, ok := FrameLayout(ftype); !ok {
			continue
		}
		_, _, trs, err := decodePayload(ftype, payload)
		if err != nil {
			return out, err
		}
		out = append(out, trs...)
	}
	return out, nil
}

// recordsOf drops the contexts.
func recordsOf(trs []TracedRecord) []Record {
	recs := make([]Record, len(trs))
	for i := range trs {
		recs[i] = trs[i].Record
	}
	return recs
}

// untraced pairs records with zero contexts.
func untraced(recs []Record) []TracedRecord {
	trs := make([]TracedRecord, len(recs))
	for i, rec := range recs {
		trs[i].Record = rec
	}
	return trs
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords(10) {
		b := AppendRecord(nil, r)
		if len(b) != RecordSize {
			t.Fatalf("encoded %d bytes, want %d", len(b), RecordSize)
		}
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
}

func TestFrameRoundTripAndStreamReader(t *testing.T) {
	recs := sampleRecords(2 * MaxRecords(TypeRecords) / 3 * 2) // forces 2 frames via Writer
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != uint64(len(recs)) {
		t.Fatalf("writer counted %d records, want %d", w.Records(), len(recs))
	}
	if w.Frames() < 2 {
		t.Fatalf("expected multi-frame split, got %d frames", w.Frames())
	}
	trs, err := readRecords(NewReader(&buf), math.MaxInt)
	if err != io.EOF {
		t.Fatalf("want clean EOF at frame boundary, got %v", err)
	}
	if len(trs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(trs), len(recs))
	}
	for i, want := range recs {
		if got := trs[i].Record; got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestDatagramFrameDecode(t *testing.T) {
	recs := sampleRecords(5)
	b := AppendFrame(nil, recs)
	var s Slab
	n, err := s.AppendDatagramFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	for i := range recs {
		if s.Recs[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestFramingErrors(t *testing.T) {
	good := AppendFrame(nil, sampleRecords(2))
	cases := map[string][]byte{
		"short header":      good[:3],
		"bad magic":         append([]byte{0, 0}, good[2:]...),
		"bad version":       append(append([]byte{}, good[:2]...), append([]byte{99}, good[3:]...)...),
		"bad type":          append(append([]byte{}, good[:3]...), append([]byte{7}, good[4:]...)...),
		"misaligned length": append(append([]byte{}, good[:4]...), append([]byte{0, 5}, good[6:]...)...),
		"truncated payload": good[:HeaderSize+RecordSize-1],
	}
	for name, b := range cases {
		var s Slab
		if _, err := s.AppendDatagramFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
	// Stream reader: EOF mid-frame must not look like a clean end.
	r := NewReader(bytes.NewReader(good[:HeaderSize+RecordSize-1]))
	if _, err := readRecords(r, 1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("stream truncation: want ErrBadFrame, got %v", err)
	}
}

func TestTopoIDStableAndDistinct(t *testing.T) {
	if TopoID("mesh-8x8") != TopoID("mesh-8x8") {
		t.Fatal("TopoID not deterministic")
	}
	if TopoID("mesh-8x8") == TopoID("torus-8x8") {
		t.Fatal("TopoID collision between distinct names")
	}
}

func TestReadJSONLNativeShape(t *testing.T) {
	in := `
{"t":5,"topo":"mesh-8x8","victim":63,"mf":513,"src":"10.0.0.7","proto":6}
# comment lines and blanks are skipped

{"victim":1,"mf":2}
`
	var got []Record
	n, err := ReadJSONL(strings.NewReader(in), JSONLConfig{Topo: TopoID("fallback"), Victim: topology.None},
		func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("emitted %d records, want 2", n)
	}
	want0 := Record{T: 5, Topo: TopoID("mesh-8x8"), Victim: 63, MF: 513,
		Src: packet.AddrFrom4(10, 0, 0, 7), Proto: packet.ProtoTCPSYN}
	if got[0] != want0 {
		t.Fatalf("got %+v want %+v", got[0], want0)
	}
	if got[1].Topo != TopoID("fallback") || got[1].Proto != packet.ProtoRaw {
		t.Fatalf("defaults not applied: %+v", got[1])
	}
}

func TestReadJSONLTraceShapeFiltersVictim(t *testing.T) {
	// Two forward hops of one packet plus its inject line: only the
	// hop INTO node 5 is an observation at victim 5.
	in := `{"kind":"inject","seq":9,"node":0,"mf_in":0,"mf_out":0,"ttl":64,"src":"10.0.0.1","dst":"10.0.0.6"}
{"kind":"forward","seq":9,"cur":0,"next":1,"mf_in":0,"mf_out":1,"ttl":64,"src":"10.0.0.1","dst":"10.0.0.6"}
{"kind":"forward","seq":9,"cur":1,"next":5,"mf_in":1,"mf_out":2,"ttl":63,"src":"10.0.0.1","dst":"10.0.0.6"}`
	var got []Record
	topo := TopoID("mesh-2x4")
	n, err := ReadJSONL(strings.NewReader(in), JSONLConfig{Topo: topo, Victim: 5},
		func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("emitted %d records, want 1", n)
	}
	want := Record{T: 9, Topo: topo, Victim: 5, MF: 2,
		Src: packet.AddrFrom4(10, 0, 0, 1), Proto: packet.ProtoRaw}
	if got[0] != want {
		t.Fatalf("got %+v want %+v", got[0], want)
	}
}

func TestReadJSONLBadLineReportsLineNumber(t *testing.T) {
	in := "{\"victim\":1,\"mf\":2}\nnot json\n"
	_, err := ReadJSONL(strings.NewReader(in), JSONLConfig{Victim: topology.None}, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}
