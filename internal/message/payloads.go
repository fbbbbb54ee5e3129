package message

import (
	"encoding/binary"
	"fmt"

	"repro/internal/field"
	"repro/internal/topo"
)

// Payload codecs for each message kind. Every payload type round-trips
// through fixed-width big-endian encodings so frame sizes are stable and
// the overhead figures reproducible.

// Hello is the formation flood payload shared by all three protocols.
// Role carries protocol-specific meaning: the cluster protocol sends the
// emitting cluster head's ID; iPDA sends the tree colour.
type Hello struct {
	Origin topo.NodeID // cluster head / tree identity the sender belongs to
	Role   uint8       // protocol-specific role or colour tag
	Hops   uint16      // hop distance from the base station
}

const helloSize = 4 + 1 + 2

// MarshalHello encodes a Hello payload.
func MarshalHello(h Hello) []byte { return AppendHello(nil, h) }

// AppendHello appends the encoding of a Hello payload to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst, buf := extend(dst, helloSize)
	binary.BigEndian.PutUint32(buf, uint32(int32(h.Origin)))
	buf[4] = h.Role
	binary.BigEndian.PutUint16(buf[5:], h.Hops)
	return dst
}

// UnmarshalHello decodes a Hello payload.
func UnmarshalHello(buf []byte) (Hello, error) {
	if len(buf) < helloSize {
		return Hello{}, ErrTruncated
	}
	return Hello{
		Origin: topo.NodeID(int32(binary.BigEndian.Uint32(buf))),
		Role:   buf[4],
		Hops:   binary.BigEndian.Uint16(buf[5:]),
	}, nil
}

// Join announces cluster membership: "I joined cluster Head".
type Join struct {
	Head topo.NodeID
	Seed field.Element // the joiner's public Vandermonde seed
}

const joinSize = 4 + 4

// MarshalJoin encodes a Join payload.
func MarshalJoin(j Join) []byte { return AppendJoin(nil, j) }

// AppendJoin appends the encoding of a Join payload to dst.
func AppendJoin(dst []byte, j Join) []byte {
	dst, buf := extend(dst, joinSize)
	binary.BigEndian.PutUint32(buf, uint32(int32(j.Head)))
	binary.BigEndian.PutUint32(buf[4:], uint32(j.Seed))
	return dst
}

// UnmarshalJoin decodes a Join payload.
func UnmarshalJoin(buf []byte) (Join, error) {
	if len(buf) < joinSize {
		return Join{}, ErrTruncated
	}
	return Join{
		Head: topo.NodeID(int32(binary.BigEndian.Uint32(buf))),
		Seed: field.Element(binary.BigEndian.Uint32(buf[4:])),
	}, nil
}

// Value wraps a single field element (share, assembled value, slice,
// plain reading).
type Value struct {
	V field.Element
}

const valueSize = 4

// MarshalValue encodes a Value payload.
func MarshalValue(v Value) []byte {
	buf := make([]byte, valueSize)
	binary.BigEndian.PutUint32(buf, uint32(v.V))
	return buf
}

// UnmarshalValue decodes a Value payload.
func UnmarshalValue(buf []byte) (Value, error) {
	if len(buf) < valueSize {
		return Value{}, ErrTruncated
	}
	return Value{V: field.Element(binary.BigEndian.Uint32(buf))}, nil
}

// MarshalValues encodes a vector of field elements (the plaintext of a
// multi-component share).
func MarshalValues(vs []field.Element) ([]byte, error) { return AppendValues(nil, vs) }

// AppendValues appends the encoding of vs to dst: a 1-byte count, then 4
// bytes per element. On error dst is returned unchanged.
func AppendValues(dst []byte, vs []field.Element) ([]byte, error) {
	if len(vs) == 0 || len(vs) > MaxComponents {
		return dst, fmt.Errorf("message: %d values out of [1, %d]", len(vs), MaxComponents)
	}
	dst, buf := extend(dst, 1+len(vs)*4)
	buf[0] = byte(len(vs))
	putElems(buf, 1, vs)
	return dst, nil
}

// UnmarshalValues decodes a vector of field elements.
func UnmarshalValues(buf []byte) ([]field.Element, error) {
	n, err := valuesLen(buf)
	if err != nil {
		return nil, err
	}
	out := make([]field.Element, n)
	getElems(buf, 1, out)
	return out, nil
}

// DecodeValuesInto decodes a vector of exactly len(dst) field elements into
// dst. It accepts what UnmarshalValues accepts when the count matches, and
// on error leaves dst untouched.
func DecodeValuesInto(dst []field.Element, buf []byte) error {
	n, err := valuesLen(buf)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("message: %d values, want %d", n, len(dst))
	}
	getElems(buf, 1, dst)
	return nil
}

// valuesLen validates a values encoding and returns its element count.
func valuesLen(buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, ErrTruncated
	}
	n := int(buf[0])
	if n == 0 || n > MaxComponents {
		return 0, fmt.Errorf("message: bad value count %d", n)
	}
	if len(buf) < 1+n*4 {
		return 0, ErrTruncated
	}
	return n, nil
}

// Aggregate is the CH->parent (or TAG child->parent) intermediate result:
// the additive SUM and the participant COUNT travelling together, which is
// how the lineage papers evaluate COUNT accuracy.
type Aggregate struct {
	Sum   field.Element
	Count uint32
}

const aggregateSize = 4 + 4

// MarshalAggregate encodes an Aggregate payload.
func MarshalAggregate(a Aggregate) []byte {
	buf := make([]byte, aggregateSize)
	binary.BigEndian.PutUint32(buf, uint32(a.Sum))
	binary.BigEndian.PutUint32(buf[4:], a.Count)
	return buf
}

// UnmarshalAggregate decodes an Aggregate payload.
func UnmarshalAggregate(buf []byte) (Aggregate, error) {
	if len(buf) < aggregateSize {
		return Aggregate{}, ErrTruncated
	}
	return Aggregate{
		Sum:   field.Element(binary.BigEndian.Uint32(buf)),
		Count: binary.BigEndian.Uint32(buf[4:]),
	}, nil
}

// Alarm is a witness's integrity violation report.
type Alarm struct {
	Suspect  topo.NodeID
	Observed field.Element
	Expected field.Element
}

const alarmSize = 4 + 4 + 4

// MarshalAlarm encodes an Alarm payload.
func MarshalAlarm(a Alarm) []byte { return AppendAlarm(nil, a) }

// AppendAlarm appends the encoding of an Alarm payload to dst.
func AppendAlarm(dst []byte, a Alarm) []byte {
	dst, buf := extend(dst, alarmSize)
	binary.BigEndian.PutUint32(buf, uint32(int32(a.Suspect)))
	binary.BigEndian.PutUint32(buf[4:], uint32(a.Observed))
	binary.BigEndian.PutUint32(buf[8:], uint32(a.Expected))
	return dst
}

// UnmarshalAlarm decodes an Alarm payload.
func UnmarshalAlarm(buf []byte) (Alarm, error) {
	if len(buf) < alarmSize {
		return Alarm{}, ErrTruncated
	}
	return Alarm{
		Suspect:  topo.NodeID(int32(binary.BigEndian.Uint32(buf))),
		Observed: field.Element(binary.BigEndian.Uint32(buf[4:])),
		Expected: field.Element(binary.BigEndian.Uint32(buf[8:])),
	}, nil
}

// MarshalIDList encodes a list of node IDs (the SDAP-class attestation
// challenge's sample set).
func MarshalIDList(ids []topo.NodeID) ([]byte, error) {
	if len(ids) > 0xFFFF {
		return nil, fmt.Errorf("message: %d ids too many", len(ids))
	}
	buf := make([]byte, 2+len(ids)*4)
	binary.BigEndian.PutUint16(buf, uint16(len(ids)))
	off := 2
	for _, id := range ids {
		binary.BigEndian.PutUint32(buf[off:], uint32(int32(id)))
		off += 4
	}
	return buf, nil
}

// UnmarshalIDList decodes a node ID list.
func UnmarshalIDList(buf []byte) ([]topo.NodeID, error) {
	if len(buf) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(buf))
	if len(buf) < 2+n*4 {
		return nil, ErrTruncated
	}
	out := make([]topo.NodeID, n)
	off := 2
	for i := range out {
		out[i] = topo.NodeID(int32(binary.BigEndian.Uint32(buf[off:])))
		off += 4
	}
	return out, nil
}

// AttestResp is a sampled aggregator's attestation: the subtree aggregate
// it reported and the per-child evidence size it would carry in a real
// deployment (the children's MAC-authenticated reports).
type AttestResp struct {
	Subject    topo.NodeID
	Reported   field.Element
	Consistent bool // whether the evidence matches the reported aggregate
}

const attestRespSize = 4 + 4 + 1

// MarshalAttestResp encodes an attestation response.
func MarshalAttestResp(a AttestResp) []byte {
	buf := make([]byte, attestRespSize)
	binary.BigEndian.PutUint32(buf, uint32(int32(a.Subject)))
	binary.BigEndian.PutUint32(buf[4:], uint32(a.Reported))
	if a.Consistent {
		buf[8] = 1
	}
	return buf
}

// UnmarshalAttestResp decodes an attestation response. The verdict byte
// must be 0 or 1: any other value is rejected rather than read as a
// verdict, so every accepted frame re-encodes to itself.
func UnmarshalAttestResp(buf []byte) (AttestResp, error) {
	if len(buf) < attestRespSize {
		return AttestResp{}, ErrTruncated
	}
	if buf[8] > 1 {
		return AttestResp{}, fmt.Errorf("message: bad attestation verdict %d", buf[8])
	}
	return AttestResp{
		Subject:    topo.NodeID(int32(binary.BigEndian.Uint32(buf))),
		Reported:   field.Element(binary.BigEndian.Uint32(buf[4:])),
		Consistent: buf[8] == 1,
	}, nil
}

// Build assembles a complete frame for the given kind and payload bytes on
// the heap. The cluster protocol does not use it: internal/core builds its
// frames, and encodes their payloads with the Append* forms, in per-round
// arenas, and such a frame and its payload are valid only until that
// protocol's next round starts (see core's frames.go).
func Build(kind Kind, from, to topo.NodeID, round uint16, payload []byte) *Message {
	return &Message{Kind: kind, From: from, To: to, Round: round, Payload: payload}
}

// DecodePayloadLen sanity-checks payload length for a kind; used in tests
// and by defensive protocol receive paths.
func DecodePayloadLen(k Kind) (int, error) {
	switch k {
	case KindHello:
		return helloSize, nil
	case KindJoin:
		return joinSize, nil
	case KindShare, KindReading, KindSlice:
		return valueSize, nil
	case KindAggregate:
		return aggregateSize, nil
	case KindAlarm:
		return alarmSize, nil
	case KindAck:
		return 0, nil
	default:
		return 0, fmt.Errorf("message: no fixed payload for %v", k)
	}
}
