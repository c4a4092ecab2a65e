package wire

// Trace-context extension: an optional 16-byte context (64-bit trace id
// + exporter send timestamp) riding beside each record, so one specific
// record can be followed from the exporter's Send call through the
// daemon's identify → detect → block pipeline and into the flight
// recorder. The extension is carried in its own frame types
// (TypeTracedRecords / TypeTracedSealed, see frame.go) so legacy
// streams parse unchanged; session clients negotiate it with a flag in
// the hello and fall back to plain frames when the server does not
// echo it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// HelloFlagTrace, set in an extended hello's flags word, asks the
	// server to accept TypeTracedSealed frames on this session. The
	// server echoes the flag in an extended ack when it will.
	HelloFlagTrace uint32 = 1 << 0

	// HelloTracePayloadSize is the extended hello: streamID(8) +
	// base(8) + flags(4) + crc32(4). Legacy 20-byte hellos remain
	// valid and mean flags == 0.
	HelloTracePayloadSize = 24

	// AckTracePayloadSize is the extended ack: count(8) + flags(4) +
	// crc32(4). Legacy 12-byte acks remain valid (flags == 0).
	AckTracePayloadSize = 16
)

// TraceContext is the per-record tracing extension. A zero ID means
// "untraced": legacy frames decode to records with a zero context, and
// the pipeline skips span capture for them.
//
// Routed and Origin are the cluster forward-hop lane: a non-owning
// instance stamps Routed when it decides to forward the record and
// Origin names itself, so the owner can stitch a forward span into the
// timeline. Routed rides only TypeTracedForwarded frames (FwdCtxSize),
// whose decoder stamps the frame's origin into every context —
// the exporter-facing 16-byte encoding of TypeTracedRecords and
// TypeTracedSealed is unchanged and never carries them.
type TraceContext struct {
	ID     uint64 // trace id, unique per exporter stream
	Sent   int64  // exporter send time, unix nanoseconds (0 = unknown)
	Routed int64  // forward-hop route time at the origin instance (0 = not forwarded)
	Origin uint64 // forwarding instance's member id (0 = not forwarded)
}

// TracedRecord pairs a Record with its trace context.
type TracedRecord struct {
	Record
	Ctx TraceContext
}

// AppendTraceContext appends tc's 16-byte encoding (id + sent) to b.
// The forward-hop fields (Routed, Origin) are not part of this layout;
// they are carried only by TypeTracedForwarded frames.
func AppendTraceContext(b []byte, tc TraceContext) []byte {
	var buf [TraceCtxSize]byte
	binary.BigEndian.PutUint64(buf[0:8], tc.ID)
	binary.BigEndian.PutUint64(buf[8:16], uint64(tc.Sent))
	return append(b, buf[:]...)
}

// DecodeTraceContext decodes one trace context from the first
// TraceCtxSize bytes of b.
func DecodeTraceContext(b []byte) (TraceContext, error) {
	if len(b) < TraceCtxSize {
		return TraceContext{}, fmt.Errorf("%w: short trace context: %d bytes", ErrBadFrame, len(b))
	}
	return TraceContext{
		ID:   binary.BigEndian.Uint64(b[0:8]),
		Sent: int64(binary.BigEndian.Uint64(b[8:16])),
	}, nil
}

// AppendHelloFlags appends a session-open frame carrying a flags word
// (extension negotiation: the server honors the flags it echoes back in
// the extended ack). flags == 0 degrades to the legacy 20-byte hello so
// old servers keep parsing new clients that have nothing to negotiate.
func AppendHelloFlags(b []byte, streamID, base uint64, flags uint32) []byte {
	if flags == 0 {
		return AppendHello(b, streamID, base)
	}
	b = appendHeader(b, TypeHello, HelloTracePayloadSize)
	var p [HelloTracePayloadSize]byte
	binary.BigEndian.PutUint64(p[0:8], streamID)
	binary.BigEndian.PutUint64(p[8:16], base)
	binary.BigEndian.PutUint32(p[16:20], flags)
	binary.BigEndian.PutUint32(p[20:24], crc32.ChecksumIEEE(p[:20]))
	return append(b, p[:]...)
}

// ParseHelloFlags decodes either hello layout: the legacy 20-byte
// payload (flags 0) or the extended 24-byte one.
func ParseHelloFlags(payload []byte) (streamID, base uint64, flags uint32, err error) {
	switch len(payload) {
	case HelloPayloadSize:
		streamID, base, err = ParseHello(payload)
		return streamID, base, 0, err
	case HelloTracePayloadSize:
		if got := binary.BigEndian.Uint32(payload[20:24]); got != crc32.ChecksumIEEE(payload[:20]) {
			return 0, 0, 0, fmt.Errorf("%w: hello crc mismatch", ErrBadFrame)
		}
		return binary.BigEndian.Uint64(payload[0:8]),
			binary.BigEndian.Uint64(payload[8:16]),
			binary.BigEndian.Uint32(payload[16:20]), nil
	default:
		return 0, 0, 0, fmt.Errorf("%w: hello payload %d bytes", ErrBadFrame, len(payload))
	}
}

// AppendAckFlags appends the server→client cumulative-accepted frame
// with a flags word echoing the negotiated hello extensions. flags == 0
// degrades to the legacy 12-byte ack.
func AppendAckFlags(b []byte, count uint64, flags uint32) []byte {
	if flags == 0 {
		return AppendAck(b, count)
	}
	b = appendHeader(b, TypeAck, AckTracePayloadSize)
	var p [AckTracePayloadSize]byte
	binary.BigEndian.PutUint64(p[0:8], count)
	binary.BigEndian.PutUint32(p[8:12], flags)
	binary.BigEndian.PutUint32(p[12:16], crc32.ChecksumIEEE(p[:12]))
	return append(b, p[:]...)
}

// ParseAckFlags decodes either ack layout: legacy 12-byte (flags 0) or
// extended 16-byte.
func ParseAckFlags(payload []byte) (count uint64, flags uint32, err error) {
	switch len(payload) {
	case AckPayloadSize:
		count, err = ParseAck(payload)
		return count, 0, err
	case AckTracePayloadSize:
		if got := binary.BigEndian.Uint32(payload[12:16]); got != crc32.ChecksumIEEE(payload[:12]) {
			return 0, 0, fmt.Errorf("%w: ack crc mismatch", ErrBadFrame)
		}
		return binary.BigEndian.Uint64(payload[0:8]), binary.BigEndian.Uint32(payload[8:12]), nil
	default:
		return 0, 0, fmt.Errorf("%w: ack payload %d bytes", ErrBadFrame, len(payload))
	}
}

// SplitMix64 spreads a counter into a well-distributed 64-bit id — the
// trace-id generator shared by the exporter client and the flight
// recorder's synthetic stream events.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
