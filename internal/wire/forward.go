package wire

// Cluster extension: the frames ddpmd instances exchange over the same
// framing exporters use, beside the forwarded record frames (frame.go).
//
// Forwarding sessions are negotiated with HelloFlagForward; a server
// that does not echo the flag (cluster mode off) refuses the session
// and the forwarder backs off.
//
// TypeGossip carries an opaque anti-entropy payload (blocklist deltas,
// victim-state replicas, liveness) whose layout belongs to
// internal/cluster; the wire layer only frames and CRC-seals it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// TypeGossip is a CRC-tailed opaque cluster anti-entropy payload.
	// Unlike session frames it is request/response on a dedicated
	// connection: the dialer sends one TypeGossip and reads one back.
	TypeGossip uint8 = 8

	// Type 9, once a dedicated victim-state handback exchange, is
	// retired: handbacks ride gossip, and readers reject type 9.

	// GossipOverhead is the crc32(4) tail sealing a gossip payload.
	GossipOverhead = 4

	// HelloFlagForward, set in an extended hello's flags word, declares
	// the session will carry forwarded record frames from a peer
	// instance. The server echoes it only when running in cluster mode.
	HelloFlagForward uint32 = 1 << 1

	// MaxGossipBody is the largest gossip body that fits one frame.
	MaxGossipBody = MaxFramePayload - GossipOverhead
)

// AppendGossip appends one TypeGossip frame sealing body with a CRC
// tail. It panics past MaxGossipBody — gossip senders cap their
// payloads instead of splitting.
func AppendGossip(b, body []byte) []byte {
	if len(body) > MaxGossipBody {
		panic(fmt.Sprintf("wire: %d-byte gossip body exceeds the %d-byte limit", len(body), MaxGossipBody))
	}
	b = appendHeader(b, TypeGossip, len(body)+GossipOverhead)
	b = append(b, body...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
}

// ParseGossip verifies a TypeGossip payload's CRC tail and returns the
// body. The body aliases payload — copy it before the next ReadFrame.
func ParseGossip(payload []byte) ([]byte, error) {
	if len(payload) < GossipOverhead {
		return nil, fmt.Errorf("%w: gossip payload %d bytes", ErrBadFrame, len(payload))
	}
	body, tail := payload[:len(payload)-4], payload[len(payload)-4:]
	if got := binary.BigEndian.Uint32(tail); got != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: gossip crc mismatch", ErrBadFrame)
	}
	return body, nil
}
