package wire

// Record frames. Six frame types carry records, and each is one
// combination of three independent layout choices; the layouts table
// below is the only place that knows which:
//
//	type                 origin  seq + crc  context per record
//	TypeRecords          -       -           0
//	TypeTracedRecords    -       -          16  id, sent
//	TypeSealed           -       yes         0
//	TypeTracedSealed     -       yes        16  id, sent
//	TypeForwarded        yes     yes         0
//	TypeTracedForwarded  yes     yes        24  id, sent, routed
//
// A payload is [origin(8)] [seq(8)] N × (record(24) [context]) [crc32(4)],
// big-endian, where the CRC seals every payload byte before it. Bare
// frames (TypeRecords, TypeTracedRecords) are what one-shot TCP streams
// and UDP datagrams carry. Sealed frames are the acked session's: seq is
// the cumulative stream index of the first record, so retransmits after
// a reconnect are skipped exactly, and the CRC turns corruption into a
// rejected frame instead of a tallied identification. Forwarded frames
// are sealed frames relayed between cluster instances, led by the
// relaying instance's member id so the owner accounts forwarded ingest
// per origin; their 24-byte context adds the time the origin decided to
// forward, so the owner can stitch a forward span into the record's
// trace. Traced frames are negotiated per session with the hello flags
// (HelloFlagTrace, HelloFlagForward) and legacy frames never change.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// TypeRecords is a bare record batch — the original exporter
	// format, still what UDP datagrams and one-shot TCP streams carry.
	TypeRecords uint8 = 1

	// TypeSealed is a session record batch: seq, records, CRC tail.
	TypeSealed uint8 = 4

	// TypeTracedRecords is TypeRecords with a trace context per record.
	TypeTracedRecords uint8 = 5

	// TypeTracedSealed is TypeSealed with a trace context per record.
	// Session clients send it after the server echoed HelloFlagTrace.
	TypeTracedSealed uint8 = 6

	// TypeForwarded is a sealed record batch relayed between cluster
	// instances: origin member id, seq, records, CRC tail.
	TypeForwarded uint8 = 7

	// TypeTracedForwarded is TypeForwarded with a forward-hop context
	// per record, sent when the peer echoed both HelloFlagForward and
	// HelloFlagTrace.
	TypeTracedForwarded uint8 = 10

	// TraceCtxSize is the exporter-facing trace context: id(8) + sent(8).
	TraceCtxSize = 16

	// FwdCtxSize is the forward-hop context: id(8) + sent(8) +
	// routed(8), the route time the owner needs for the forward span.
	FwdCtxSize = 24
)

// Layout is the payload shape of one record frame type.
type Layout struct {
	Origin bool // leading origin member id: forwarded frames only
	Sealed bool // leading seq and trailing CRC; forwarded implies sealed
	Ctx    int  // per-record context bytes: 0, TraceCtxSize or FwdCtxSize
}

// layouts maps each record-carrying frame type to its layout.
var layouts = map[uint8]Layout{
	TypeRecords:         {},
	TypeTracedRecords:   {Ctx: TraceCtxSize},
	TypeSealed:          {Sealed: true},
	TypeTracedSealed:    {Sealed: true, Ctx: TraceCtxSize},
	TypeForwarded:       {Origin: true, Sealed: true},
	TypeTracedForwarded: {Origin: true, Sealed: true, Ctx: FwdCtxSize},
}

// FrameLayout reports the layout of a record frame type; ok is false
// for frame types that carry no records.
func FrameLayout(ftype uint8) (l Layout, ok bool) {
	l, ok = layouts[ftype]
	return l, ok
}

// MaxRecords is how many records one frame of type ftype can carry
// under the 16-bit payload length (0 for frames that carry none).
func MaxRecords(ftype uint8) int {
	l, ok := layouts[ftype]
	if !ok {
		return 0
	}
	return l.capacity()
}

// overhead is the payload's non-record bytes.
func (l Layout) overhead() int {
	n := 0
	if l.Origin {
		n += 8
	}
	if l.Sealed {
		n += 8 + 4
	}
	return n
}

// stride is one record plus its context.
func (l Layout) stride() int { return RecordSize + l.Ctx }

// capacity is the most records one frame of the layout can carry.
func (l Layout) capacity() int { return (MaxFramePayload - l.overhead()) / l.stride() }

// String names the layout in error messages and journal details.
func (l Layout) String() string {
	name := "records"
	if l.Origin {
		name = "forwarded"
	} else if l.Sealed {
		name = "sealed"
	}
	if l.Ctx > 0 {
		name = "traced " + name
	}
	return name
}

// checkLen validates a payload length against the layout.
func (l Layout) checkLen(n int) error {
	if n < l.overhead() || (n-l.overhead())%l.stride() != 0 {
		return fmt.Errorf("%w: %s payload length %d", ErrBadFrame, l, n)
	}
	return nil
}

// sealedType returns the sealed record frame type with or without the
// origin and context lanes — what a session client ships.
func sealedType(origin, traced bool) uint8 {
	for t, l := range layouts {
		if l.Sealed && l.Origin == origin && (l.Ctx > 0) == traced {
			return t
		}
	}
	panic("wire: no sealed layout")
}

// AppendRecordFrame appends one record frame of type ftype holding trs.
// origin is written only by forwarded layouts and seq only by sealed
// ones; each record is followed by as much of its context as the layout
// carries (none, id + sent, or id + sent + routed). It panics if ftype
// carries no records or trs exceeds MaxRecords(ftype) — splitting is the
// caller's job.
func AppendRecordFrame(b []byte, ftype uint8, origin, seq uint64, trs []TracedRecord) []byte {
	return appendRecordFrame(b, ftype, origin, seq, nil, trs)
}

// AppendFrame appends one TypeRecords frame holding recs (the Writer's
// encoder). It panics past MaxRecords(TypeRecords).
func AppendFrame(b []byte, recs []Record) []byte {
	return appendRecordFrame(b, TypeRecords, 0, 0, recs, nil)
}

// AppendSealed appends one TypeSealed frame: seq is the cumulative
// stream index of recs[0].
func AppendSealed(b []byte, seq uint64, recs []Record) []byte {
	return appendRecordFrame(b, TypeSealed, 0, seq, recs, nil)
}

// AppendTracedSealed appends one TypeTracedSealed frame.
func AppendTracedSealed(b []byte, seq uint64, trs []TracedRecord) []byte {
	return appendRecordFrame(b, TypeTracedSealed, 0, seq, nil, trs)
}

// appendRecordFrame is the one record-frame encoder. Records come from
// recs (zero contexts) followed by trs; callers pass one or the other.
func appendRecordFrame(b []byte, ftype uint8, origin, seq uint64, recs []Record, trs []TracedRecord) []byte {
	l, ok := layouts[ftype]
	if !ok {
		panic(fmt.Sprintf("wire: frame type %d carries no records", ftype))
	}
	n := len(recs) + len(trs)
	if n > l.capacity() {
		panic(fmt.Sprintf("wire: %d records exceed the %d-record %s frame limit", n, l.capacity(), l))
	}
	b = appendHeader(b, ftype, l.overhead()+n*l.stride())
	start := len(b)
	if l.Origin {
		b = binary.BigEndian.AppendUint64(b, origin)
	}
	if l.Sealed {
		b = binary.BigEndian.AppendUint64(b, seq)
	}
	for i := range recs {
		b = appendContext(AppendRecord(b, recs[i]), l.Ctx, TraceContext{})
	}
	for i := range trs {
		b = appendContext(AppendRecord(b, trs[i].Record), l.Ctx, trs[i].Ctx)
	}
	if l.Sealed {
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	}
	return b
}

// appendContext appends the first width bytes of tc's encoding.
func appendContext(b []byte, width int, tc TraceContext) []byte {
	if width == 0 {
		return b
	}
	b = AppendTraceContext(b, tc)
	if width == FwdCtxSize {
		b = binary.BigEndian.AppendUint64(b, uint64(tc.Routed))
	}
	return b
}
