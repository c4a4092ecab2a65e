package wire

import (
	"bytes"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{},
		{ID: 1, Sent: 2},
		{ID: ^uint64(0), Sent: -1},
		{ID: 0xDEADBEEF, Sent: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).UnixNano()},
	}
	for _, tc := range cases {
		b := AppendTraceContext(nil, tc)
		if len(b) != TraceCtxSize {
			t.Fatalf("encoded %d bytes, want %d", len(b), TraceCtxSize)
		}
		got, err := DecodeTraceContext(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc {
			t.Fatalf("round trip %+v -> %+v", tc, got)
		}
	}
	if _, err := DecodeTraceContext(make([]byte, TraceCtxSize-1)); err == nil {
		t.Fatal("short trace context decoded")
	}
}

func testTracedRecords() []TracedRecord {
	return []TracedRecord{
		{Record: Record{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}, Ctx: TraceContext{ID: 7, Sent: 8}},
		{Record: Record{T: 9, Topo: 2, Victim: 1, MF: 0xA5A5, Src: 11, Proto: 17}},
		{Record: Record{MF: 1}, Ctx: TraceContext{ID: ^uint64(0), Sent: -5}},
	}
}

func TestTracedFrameRoundTrip(t *testing.T) {
	want := testTracedRecords()
	b := AppendRecordFrame(nil, TypeTracedRecords, 0, 0, want)
	var s Slab
	consumed, err := s.AppendDatagramFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	got := slabTraced(&s)
	if consumed != len(b) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(b))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestLegacyRecordsGetZeroContext(t *testing.T) {
	recs := []Record{{T: 1, MF: 2}, {T: 3, MF: 4}}
	b := AppendFrame(nil, recs)
	var s Slab
	if _, err := s.AppendDatagramFrame(b); err != nil {
		t.Fatal(err)
	}
	got := slabTraced(&s)
	for i, tr := range got {
		if tr.Ctx != (TraceContext{}) {
			t.Fatalf("record %d: legacy frame produced context %+v", i, tr.Ctx)
		}
		if tr.Record != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, tr.Record, recs[i])
		}
	}
}

func TestTracedSealedRoundTrip(t *testing.T) {
	want := testTracedRecords()
	b := AppendTracedSealed(nil, 42, want)
	payload := b[HeaderSize:]
	_, seq, got, err := decodePayload(TypeTracedSealed, payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("seq = %d, want 42", seq)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Any flipped byte must fail the CRC.
	corrupt := append([]byte(nil), payload...)
	corrupt[9] ^= 0x40
	if _, _, _, err := decodePayload(TypeTracedSealed, corrupt); err == nil {
		t.Fatal("corrupted traced sealed payload parsed")
	}
}

func TestHelloAckFlagLayouts(t *testing.T) {
	// flags == 0 degrades to the byte-identical legacy layouts.
	if got, want := AppendHelloFlags(nil, 7, 9, 0), AppendHello(nil, 7, 9); !bytes.Equal(got, want) {
		t.Fatalf("flagless hello %x != legacy hello %x", got, want)
	}
	if got, want := AppendAckFlags(nil, 5, 0), AppendAck(nil, 5); !bytes.Equal(got, want) {
		t.Fatalf("flagless ack %x != legacy ack %x", got, want)
	}

	// Extended layouts round-trip stream id, base and flags.
	hb := AppendHelloFlags(nil, 7, 9, HelloFlagTrace)
	stream, base, flags, err := ParseHelloFlags(hb[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if stream != 7 || base != 9 || flags != HelloFlagTrace {
		t.Fatalf("extended hello decoded (%d, %d, %#x)", stream, base, flags)
	}
	ab := AppendAckFlags(nil, 11, HelloFlagTrace)
	count, aflags, err := ParseAckFlags(ab[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if count != 11 || aflags != HelloFlagTrace {
		t.Fatalf("extended ack decoded (%d, %#x)", count, aflags)
	}

	// Legacy payloads parse through the flag-aware parsers as flags 0.
	lh := AppendHello(nil, 3, 4)
	if _, _, flags, err := ParseHelloFlags(lh[HeaderSize:]); err != nil || flags != 0 {
		t.Fatalf("legacy hello via ParseHelloFlags: flags %#x err %v", flags, err)
	}
	la := AppendAck(nil, 6)
	if _, flags, err := ParseAckFlags(la[HeaderSize:]); err != nil || flags != 0 {
		t.Fatalf("legacy ack via ParseAckFlags: flags %#x err %v", flags, err)
	}

	// Corrupt extended CRCs are rejected.
	hb[HeaderSize] ^= 0x01
	if _, _, _, err := ParseHelloFlags(hb[HeaderSize:]); err == nil {
		t.Fatal("corrupted extended hello parsed")
	}
	ab[HeaderSize] ^= 0x01
	if _, _, err := ParseAckFlags(ab[HeaderSize:]); err == nil {
		t.Fatal("corrupted extended ack parsed")
	}
}

// TestReaderMixedRecordStream interleaves the exporter-facing record
// frame types on one stream: reading frames and decoding them into a
// slab must deliver all records in order, with contexts only where the
// wire carried them, and the record lane alone must match on the same
// stream shapes.
func TestReaderMixedRecordStream(t *testing.T) {
	traced := testTracedRecords()
	plain := []Record{{T: 100, MF: 1}, {T: 101, MF: 2}}
	var stream []byte
	stream = AppendFrame(stream, plain)
	stream = AppendRecordFrame(stream, TypeTracedRecords, 0, 0, traced)
	stream = AppendSealed(stream, 0, plain)
	stream = AppendTracedSealed(stream, 2, traced)

	got, err := readRecords(NewReader(bytes.NewReader(stream)), math.MaxInt)
	if err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	var want []TracedRecord
	for _, rec := range plain {
		want = append(want, TracedRecord{Record: rec})
	}
	want = append(want, traced...)
	for _, rec := range plain {
		want = append(want, TracedRecord{Record: rec})
	}
	want = append(want, traced...)
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// The record lane alone matches, contexts dropped.
	again, err := readRecords(NewReader(bytes.NewReader(stream)), math.MaxInt)
	if err != io.EOF {
		t.Fatalf("second read: want EOF, got %v", err)
	}
	for i, rec := range recordsOf(again) {
		if rec != want[i].Record {
			t.Fatalf("record lane %d: got %+v want %+v", i, rec, want[i].Record)
		}
	}
}

// traceServer is a minimal session server that can either honor or
// ignore the trace hello flag, recording which frame types and trace
// ids arrive.
type traceServer struct {
	t         *testing.T
	ln        net.Listener
	echoTrace bool

	mu     sync.Mutex
	count  uint64
	got    []TracedRecord
	ftypes map[uint8]int
}

func startTraceServer(t *testing.T, echoTrace bool) *traceServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &traceServer{t: t, ln: ln, echoTrace: echoTrace, ftypes: make(map[uint8]int)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.handle(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *traceServer) handle(conn net.Conn) {
	defer conn.Close()
	r := NewReader(conn)
	var scratch []byte
	var ackFlags uint32
	ingest := func(seq uint64, batch []TracedRecord) uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if skip := int(s.count - seq); skip >= 0 && skip < len(batch) {
			s.got = append(s.got, batch[skip:]...)
			s.count = seq + uint64(len(batch))
		}
		return s.count
	}
	for {
		ftype, payload, err := r.ReadFrame()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.ftypes[ftype]++
		s.mu.Unlock()
		switch ftype {
		case TypeHello:
			_, base, flags, err := ParseHelloFlags(payload)
			if err != nil {
				return
			}
			if s.echoTrace {
				ackFlags = flags & HelloFlagTrace
			}
			s.mu.Lock()
			if s.count < base {
				s.count = base
			}
			c := s.count
			s.mu.Unlock()
			scratch = AppendAckFlags(scratch[:0], c, ackFlags)
			if _, err := conn.Write(scratch); err != nil {
				return
			}
		case TypeSealed, TypeTracedSealed:
			_, seq, batch, err := decodePayload(ftype, payload)
			if err != nil {
				return
			}
			scratch = AppendAckFlags(scratch[:0], ingest(seq, batch), ackFlags)
			if _, err := conn.Write(scratch); err != nil {
				return
			}
		default:
			return
		}
	}
}

func (s *traceServer) snapshot() (got []TracedRecord, ftypes map[uint8]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ft := make(map[uint8]int, len(s.ftypes))
	for k, v := range s.ftypes {
		ft[k] = v
	}
	return append([]TracedRecord(nil), s.got...), ft
}

// TestClientTraceNegotiation covers both halves of the handshake: a
// server that echoes the trace flag receives traced sealed frames with
// the deterministic SplitMix64 id sequence, and one that ignores the
// flag receives plain sealed frames — same records, no ids, no protocol
// error.
func TestClientTraceNegotiation(t *testing.T) {
	recs := []Record{{T: 1, MF: 10}, {T: 2, MF: 20}, {T: 3, MF: 30}}
	for _, echo := range []bool{true, false} {
		s := startTraceServer(t, echo)
		now := int64(12345)
		c, err := NewClient(ClientConfig{
			Addr: s.ln.Addr().String(), Seed: 7,
			MaxAttempts: 3, Trace: true,
			NowNano: func() int64 { return now },
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		if err := c.Send(recs); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("echo=%v: close: %v", echo, err)
		}
		got, ftypes := s.snapshot()
		if len(got) != len(recs) {
			t.Fatalf("echo=%v: delivered %d records, want %d", echo, len(got), len(recs))
		}
		for i, tr := range got {
			if tr.Record != recs[i] {
				t.Fatalf("echo=%v: record %d: got %+v want %+v", echo, i, tr.Record, recs[i])
			}
			if echo {
				if want := c.TraceIDAt(uint64(i)); tr.Ctx.ID != want {
					t.Fatalf("record %d: trace id %#x, want %#x", i, tr.Ctx.ID, want)
				}
				if tr.Ctx.Sent != now {
					t.Fatalf("record %d: sent %d, want %d", i, tr.Ctx.Sent, now)
				}
			} else if tr.Ctx != (TraceContext{}) {
				t.Fatalf("record %d: context %+v on a non-negotiated session", i, tr.Ctx)
			}
		}
		if echo && ftypes[TypeTracedSealed] == 0 {
			t.Fatal("negotiated session sent no traced sealed frames")
		}
		if !echo && ftypes[TypeTracedSealed] != 0 {
			t.Fatal("non-negotiated session sent traced sealed frames")
		}
		if !echo && ftypes[TypeSealed] == 0 {
			t.Fatal("non-negotiated session sent no plain sealed frames")
		}
	}
}

// TestClientStampsOneClockReadPerSend pins the exporter's clock budget:
// Send reads NowNano once per call and stamps every record it offers
// with that reading, while trace ids keep the per-record SplitMix64
// sequence TraceIDAt reports.
func TestClientStampsOneClockReadPerSend(t *testing.T) {
	s := startTraceServer(t, true)
	reads := 0
	c, err := NewClient(ClientConfig{
		Addr: s.ln.Addr().String(), Seed: 7,
		MaxAttempts: 3, Trace: true,
		NowNano: func() int64 { reads++; return int64(1000 * reads) },
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	sizes := []int{5, 1, 300}
	var wantSent []int64
	for call, n := range sizes {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{T: 1, MF: uint16(i)}
		}
		if err := c.Send(recs); err != nil {
			t.Fatal(err)
		}
		if reads != call+1 {
			t.Fatalf("after %d Send calls the clock was read %d times", call+1, reads)
		}
		for range recs {
			wantSent = append(wantSent, int64(1000*(call+1)))
		}
	}
	if err := c.Send(nil); err != nil || reads != len(sizes) {
		t.Fatalf("empty Send: err %v, clock reads %d, want %d", err, reads, len(sizes))
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, _ := s.snapshot()
	if len(got) != len(wantSent) {
		t.Fatalf("delivered %d records, want %d", len(got), len(wantSent))
	}
	for i, tr := range got {
		if want := c.TraceIDAt(uint64(i)); tr.Ctx.ID != want {
			t.Fatalf("record %d: trace id %#x, want %#x", i, tr.Ctx.ID, want)
		}
		if tr.Ctx.Sent != wantSent[i] {
			t.Fatalf("record %d: sent %d, want %d", i, tr.Ctx.Sent, wantSent[i])
		}
	}
}
