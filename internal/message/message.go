// Package message defines the on-air wire formats for every protocol in the
// repository. Messages marshal to real byte frames (encoding/binary,
// big-endian) so that the radio layer can charge transmission delay and the
// metrics layer can report bandwidth consumption in bytes, exactly as the
// lineage papers do.
//
// Frame layout:
//
//	preamble+PHY header (charged by the radio, PHYOverhead bytes)
//	Kind      uint8
//	From      int32
//	To        int32   (BroadcastID = -1)
//	Round     uint16
//	Seq       uint16  (per-sender MAC sequence, for ARQ dedup)
//	PayloadLen uint16
//	Payload   [...]byte
//
// Encrypted payloads (CPDA shares, iPDA slices) additionally carry the
// crypto envelope overhead added by package wsncrypto.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/topo"
)

// Kind discriminates payload types.
type Kind uint8

// Message kinds. Numbering starts at 1 so a zero Kind is detectably invalid.
const (
	KindHello        Kind = iota + 1 // tree/cluster formation flood
	KindJoin                         // cluster membership announcement
	KindShare                        // encrypted CPDA polynomial share
	KindAssembled                    // cleartext in-cluster assembled value F_j
	KindAggregate                    // CH -> parent intermediate aggregate
	KindAlarm                        // witness integrity alarm
	KindReading                      // plain leaf reading (TAG)
	KindSlice                        // encrypted iPDA data slice
	KindRoster                       // CH -> cluster: member list with seeds
	KindAnnounce                     // CH outgoing aggregate with witness detail
	KindRelay                        // CH-relayed inner frame between members
	KindAck                          // MAC-level acknowledgement
	KindAttest                       // SDAP-lite: BS attestation challenge (sampled IDs)
	KindAttestResp                   // SDAP-lite: sampled aggregator's attestation
	KindRepoll                       // CH -> member: retransmit your Assembled report
	KindReassemble                   // CH -> cluster: degraded-recovery subset announcement
	KindSubShare                     // encrypted degraded-recovery polynomial share
	KindSubAssembled                 // member's degraded-recovery column sum
	KindTakeover                     // deputy -> cluster: head-silence takeover claim
	kindEnd
)

var kindNames = map[Kind]string{
	KindHello:        "hello",
	KindJoin:         "join",
	KindShare:        "share",
	KindAssembled:    "assembled",
	KindAggregate:    "aggregate",
	KindAlarm:        "alarm",
	KindReading:      "reading",
	KindSlice:        "slice",
	KindRoster:       "roster",
	KindAnnounce:     "announce",
	KindRelay:        "relay",
	KindAck:          "ack",
	KindAttest:       "attest",
	KindAttestResp:   "attest-resp",
	KindRepoll:       "repoll",
	KindReassemble:   "reassemble",
	KindSubShare:     "sub-share",
	KindSubAssembled: "sub-assembled",
	KindTakeover:     "takeover",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= KindHello && k < kindEnd }

// BroadcastID addresses a frame to every node in range.
const BroadcastID topo.NodeID = -1

// HeaderSize is the marshalled header length in bytes.
const HeaderSize = 1 + 4 + 4 + 2 + 2 + 2

// PHYOverhead models the preamble/PHY/MAC framing bytes charged per frame
// on the air but not carried in Marshal output.
const PHYOverhead = 8

// ErrTruncated reports a frame too short to decode.
var ErrTruncated = errors.New("message: truncated frame")

// Message is one protocol frame.
type Message struct {
	Kind    Kind
	From    topo.NodeID
	To      topo.NodeID // BroadcastID for broadcasts
	Round   uint16
	Seq     uint16 // assigned by the MAC layer
	Payload []byte
}

// WireSize returns the total on-air size in bytes including PHY overhead.
func (m *Message) WireSize() int {
	return PHYOverhead + HeaderSize + len(m.Payload)
}

// IsBroadcast reports whether the frame is addressed to everyone in range.
func (m *Message) IsBroadcast() bool { return m.To == BroadcastID }

// Validate reports whether the frame would Marshal, without encoding it.
// The radio checks every frame at transmit time; allocating a wire image
// just to throw it away showed up in round profiles.
func (m *Message) Validate() error {
	if !m.Kind.Valid() {
		return fmt.Errorf("message: invalid kind %d", m.Kind)
	}
	if len(m.Payload) > 0xFFFF {
		return fmt.Errorf("message: payload too large: %d", len(m.Payload))
	}
	return nil
}

// Marshal encodes the frame (excluding PHY overhead).
func (m *Message) Marshal() ([]byte, error) {
	if !m.Kind.Valid() {
		return nil, fmt.Errorf("message: invalid kind %d", m.Kind)
	}
	if len(m.Payload) > 0xFFFF {
		return nil, fmt.Errorf("message: payload too large: %d", len(m.Payload))
	}
	buf := make([]byte, HeaderSize+len(m.Payload))
	buf[0] = byte(m.Kind)
	binary.BigEndian.PutUint32(buf[1:], uint32(int32(m.From)))
	binary.BigEndian.PutUint32(buf[5:], uint32(int32(m.To)))
	binary.BigEndian.PutUint16(buf[9:], m.Round)
	binary.BigEndian.PutUint16(buf[11:], m.Seq)
	binary.BigEndian.PutUint16(buf[13:], uint16(len(m.Payload)))
	copy(buf[HeaderSize:], m.Payload)
	return buf, nil
}

// Unmarshal decodes a frame produced by Marshal into a new Message that
// owns a copy of the payload.
func Unmarshal(buf []byte) (*Message, error) {
	m := &Message{}
	if err := UnmarshalInto(buf, m); err != nil {
		return nil, err
	}
	if m.Payload != nil {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	return m, nil
}

// UnmarshalInto decodes a frame produced by Marshal into *m without
// copying: m.Payload is a view into buf, capped at the payload's length, or
// nil when the payload is empty. On error *m is left unchanged.
func UnmarshalInto(buf []byte, m *Message) error {
	if len(buf) < HeaderSize {
		return ErrTruncated
	}
	if !Kind(buf[0]).Valid() {
		return fmt.Errorf("message: invalid kind %d", buf[0])
	}
	plen := int(binary.BigEndian.Uint16(buf[13:]))
	if len(buf) < HeaderSize+plen {
		return ErrTruncated
	}
	*m = Message{
		Kind:  Kind(buf[0]),
		From:  topo.NodeID(int32(binary.BigEndian.Uint32(buf[1:]))),
		To:    topo.NodeID(int32(binary.BigEndian.Uint32(buf[5:]))),
		Round: binary.BigEndian.Uint16(buf[9:]),
		Seq:   binary.BigEndian.Uint16(buf[11:]),
	}
	if plen > 0 {
		m.Payload = buf[HeaderSize : HeaderSize+plen : HeaderSize+plen]
	}
	return nil
}
