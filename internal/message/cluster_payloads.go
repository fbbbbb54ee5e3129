package message

import (
	"encoding/binary"
	"fmt"

	"repro/internal/field"
	"repro/internal/topo"
)

// MaxClusterSize caps roster length so the member bitmask in Assembled and
// Announce frames fits in a uint64. Rosters beyond the mask width are
// rejected explicitly by the codecs — a bit shift must never silently wrap.
const MaxClusterSize = 64

// FullMask returns the bitmask with the low m bits set — the mask of a
// complete roster of m members. It is shift-safe at the mask width boundary
// (m == 64 returns all ones instead of wrapping to zero).
func FullMask(m int) uint64 {
	if m <= 0 {
		return 0
	}
	if m >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(m) - 1
}

// MaxComponents caps the additive component vector a single round carries
// (the largest query, the MIN/MAX histogram, uses 16).
const MaxComponents = 16

// RosterEntry is one cluster member with its public Vandermonde seed.
type RosterEntry struct {
	ID   topo.NodeID
	Seed field.Element
}

// Roster is the cluster head's membership announcement. Entry order defines
// the member indices used by share exchange and bitmasks; the head is
// always entry 0.
type Roster struct {
	Head    topo.NodeID
	Entries []RosterEntry
}

// MarshalRoster encodes a Roster payload.
func MarshalRoster(r Roster) ([]byte, error) { return AppendRoster(nil, r) }

// AppendRoster appends the encoding of a Roster payload to dst. On error
// dst is returned unchanged.
func AppendRoster(dst []byte, r Roster) ([]byte, error) {
	if len(r.Entries) > MaxClusterSize {
		return dst, fmt.Errorf("message: roster of %d exceeds max %d", len(r.Entries), MaxClusterSize)
	}
	dst, buf := extend(dst, 4+1+len(r.Entries)*8)
	binary.BigEndian.PutUint32(buf, uint32(int32(r.Head)))
	buf[4] = byte(len(r.Entries))
	off := 5
	for _, e := range r.Entries {
		binary.BigEndian.PutUint32(buf[off:], uint32(int32(e.ID)))
		binary.BigEndian.PutUint32(buf[off+4:], uint32(e.Seed))
		off += 8
	}
	return dst, nil
}

// UnmarshalRoster decodes a Roster payload.
func UnmarshalRoster(buf []byte) (Roster, error) {
	if len(buf) < 5 {
		return Roster{}, ErrTruncated
	}
	n := int(buf[4])
	if n > MaxClusterSize {
		return Roster{}, fmt.Errorf("message: roster of %d exceeds max %d", n, MaxClusterSize)
	}
	if len(buf) < 5+n*8 {
		return Roster{}, ErrTruncated
	}
	r := Roster{
		Head:    topo.NodeID(int32(binary.BigEndian.Uint32(buf))),
		Entries: make([]RosterEntry, n),
	}
	off := 5
	for i := range r.Entries {
		r.Entries[i] = RosterEntry{
			ID:   topo.NodeID(int32(binary.BigEndian.Uint32(buf[off:]))),
			Seed: field.Element(binary.BigEndian.Uint32(buf[off+4:])),
		}
		off += 8
	}
	return r, nil
}

// UnmarshalRosterInto decodes a Roster payload into *r, reusing the
// capacity of r.Entries, so a receiver that decodes every overheard roster
// into one scratch value allocates nothing once warm. It accepts and
// rejects exactly what UnmarshalRoster does; on error *r is left unchanged.
// The next call overwrites r.Entries, so a caller that keeps the roster
// must copy it.
func UnmarshalRosterInto(buf []byte, r *Roster) error {
	if len(buf) < 5 {
		return ErrTruncated
	}
	n := int(buf[4])
	if n > MaxClusterSize {
		return fmt.Errorf("message: roster of %d exceeds max %d", n, MaxClusterSize)
	}
	if len(buf) < 5+n*8 {
		return ErrTruncated
	}
	r.Head = topo.NodeID(int32(binary.BigEndian.Uint32(buf)))
	r.Entries = resize(r.Entries, n)
	off := 5
	for i := range r.Entries {
		r.Entries[i] = RosterEntry{
			ID:   topo.NodeID(int32(binary.BigEndian.Uint32(buf[off:]))),
			Seed: field.Element(binary.BigEndian.Uint32(buf[off+4:])),
		}
		off += 8
	}
	return nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Assembled is a member's cleartext in-cluster report of its column sums
// F_j — one per additive component — together with the bitmask of roster
// indices whose shares it incorporated. The mask is the loss-visibility
// mechanism that lets the head and the witnesses agree on exactly which
// inputs a cluster solve used.
type Assembled struct {
	Fs   []field.Element // one column sum per component
	Mask uint64          // bit i set = member with roster index i contributed
}

// MarshalAssembled encodes an Assembled payload: 1-byte component count,
// 8-byte contribution mask, then 4 bytes per column sum.
func MarshalAssembled(a Assembled) ([]byte, error) { return AppendAssembled(nil, a) }

// AppendAssembled appends the encoding of an Assembled payload to dst. On
// error dst is returned unchanged.
func AppendAssembled(dst []byte, a Assembled) ([]byte, error) {
	if len(a.Fs) == 0 || len(a.Fs) > MaxComponents {
		return dst, fmt.Errorf("message: %d components out of [1, %d]", len(a.Fs), MaxComponents)
	}
	dst, buf := extend(dst, 1+8+len(a.Fs)*4)
	buf[0] = byte(len(a.Fs))
	binary.BigEndian.PutUint64(buf[1:], a.Mask)
	putElems(buf, 9, a.Fs)
	return dst, nil
}

// UnmarshalAssembled decodes an Assembled payload.
func UnmarshalAssembled(buf []byte) (Assembled, error) {
	if len(buf) < 9 {
		return Assembled{}, ErrTruncated
	}
	c := int(buf[0])
	if c == 0 || c > MaxComponents {
		return Assembled{}, fmt.Errorf("message: bad component count %d", c)
	}
	if len(buf) < 9+c*4 {
		return Assembled{}, ErrTruncated
	}
	a := Assembled{Mask: binary.BigEndian.Uint64(buf[1:]), Fs: make([]field.Element, c)}
	off := 9
	for i := range a.Fs {
		a.Fs[i] = field.Element(binary.BigEndian.Uint32(buf[off:]))
		off += 4
	}
	return a, nil
}

// UnmarshalAssembledInto decodes an Assembled payload into *a, reusing the
// capacity of a.Fs, so a receiver that hands it a vector of the round's
// width allocates nothing. It accepts and rejects exactly what
// UnmarshalAssembled does and yields an equal value; on error *a is left
// unchanged.
func UnmarshalAssembledInto(buf []byte, a *Assembled) error {
	if len(buf) < 9 {
		return ErrTruncated
	}
	c := int(buf[0])
	if c == 0 || c > MaxComponents {
		return fmt.Errorf("message: bad component count %d", c)
	}
	if len(buf) < 9+c*4 {
		return ErrTruncated
	}
	a.Mask = binary.BigEndian.Uint64(buf[1:])
	a.Fs = resize(a.Fs, c)
	getElems(buf, 9, a.Fs)
	return nil
}

// Reassemble is a cluster head's degraded-recovery announcement: the round's
// full share exchange could not be completed consistently, so the head asks
// the members named by Mask (roster-index bits) to run a fresh sub-share
// exchange among themselves and re-report column sums restricted to that
// subset.
type Reassemble struct {
	Mask uint64 // roster-index bits of the recovery subset M
}

// MarshalReassemble encodes a Reassemble payload.
func MarshalReassemble(r Reassemble) []byte { return AppendReassemble(nil, r) }

// AppendReassemble appends the encoding of a Reassemble payload to dst.
func AppendReassemble(dst []byte, r Reassemble) []byte {
	return binary.BigEndian.AppendUint64(dst, r.Mask)
}

// UnmarshalReassemble decodes a Reassemble payload.
func UnmarshalReassemble(buf []byte) (Reassemble, error) {
	if len(buf) < 8 {
		return Reassemble{}, ErrTruncated
	}
	return Reassemble{Mask: binary.BigEndian.Uint64(buf)}, nil
}

// ChildEntry is one child cluster head's contribution as echoed in a
// parent's Announce. Totals carries one value per additive component.
type ChildEntry struct {
	Child  topo.NodeID
	Totals []field.Element
	Count  uint32
}

// equalElems compares component vectors.
func equalElems(a, b []field.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal compares child entries.
func (c ChildEntry) Equal(o ChildEntry) bool {
	return c.Child == o.Child && c.Count == o.Count && equalElems(c.Totals, o.Totals)
}

// Announce is a cluster head's outgoing aggregate, transmitted up the CH
// tree and overheard by three audiences: (a) the parent accumulates it,
// (b) the head's own cluster members witness the ClusterSum component, and
// (c) each child head witnesses its echoed entry.
//
// FValues echoes the complete assembled-value vector (positional by roster
// index) that the head solved. This is the integrity commitment: every
// member can verify its own entry (a forged vector is caught by the member
// whose F was altered) and re-solve the vector, so an announced ClusterSum
// inconsistent with the true in-cluster data always triggers an alarm from
// at least one honest member.
type Announce struct {
	Origin      topo.NodeID     // the head that produced this announce
	ClusterSums []field.Element // one per component; nil when the cluster failed
	ClusterCnt  uint32          // members contributing (0 = cluster failed)
	// Mask is the effective participant set the head solved over
	// (roster-index bits): the full roster mask after a complete exchange, a
	// strict subset after degraded recovery, zero when the cluster failed or
	// reported plainly. Witnesses re-solve against exactly this subset, so a
	// head cannot silently shrink or substitute the participant set.
	Mask uint64
	// FMatrix echoes the assembled values the head solved: row-major by
	// ascending Mask bit (roster index for a full solve, subset order after
	// degraded recovery), Components values per row. Empty when the cluster
	// failed.
	Components uint8
	FMatrix    []field.Element
	Children   []ChildEntry
}

// clusterSum returns the cluster's contribution for component k (zero when
// the cluster failed).
func (a Announce) clusterSum(k int) field.Element {
	if k < len(a.ClusterSums) {
		return a.ClusterSums[k]
	}
	return 0
}

// ClusterSumOrZero returns the first component's cluster sum (zero when the
// cluster failed) — a convenience for alarm payloads.
func (a Announce) ClusterSumOrZero() field.Element { return a.clusterSum(0) }

// Total returns the full aggregate vector the announce carries upward,
// sized to the announce's component count.
func (a Announce) Total() []field.Element { return a.TotalInto(nil) }

// TotalInto is Total written into dst, reusing its capacity, and returned.
func (a Announce) TotalInto(dst []field.Element) []field.Element {
	c := int(a.Components)
	if c == 0 {
		c = 1
	}
	out := resize(dst, c)
	for k := range out {
		out[k] = a.clusterSum(k)
		for _, ch := range a.Children {
			if k < len(ch.Totals) {
				out[k] = out[k].Add(ch.Totals[k])
			}
		}
	}
	return out
}

// TotalCount returns the full participant count carried upward.
func (a Announce) TotalCount() uint32 {
	n := a.ClusterCnt
	for _, c := range a.Children {
		n += c.Count
	}
	return n
}

// MarshalAnnounce encodes an Announce payload.
func MarshalAnnounce(a Announce) ([]byte, error) { return AppendAnnounce(nil, a) }

// AppendAnnounce appends the encoding of an Announce payload to dst. On
// error dst is returned unchanged.
func AppendAnnounce(dst []byte, a Announce) ([]byte, error) {
	c := int(a.Components)
	if c == 0 || c > MaxComponents {
		return dst, fmt.Errorf("message: component count %d out of [1, %d]", c, MaxComponents)
	}
	if len(a.Children) > 255 {
		return dst, fmt.Errorf("message: %d children exceed max 255", len(a.Children))
	}
	if len(a.ClusterSums) != 0 && len(a.ClusterSums) != c {
		return dst, fmt.Errorf("message: %d cluster sums for %d components", len(a.ClusterSums), c)
	}
	if len(a.FMatrix)%c != 0 || len(a.FMatrix)/c > MaxClusterSize {
		return dst, fmt.Errorf("message: bad F matrix size %d for %d components", len(a.FMatrix), c)
	}
	for _, ch := range a.Children {
		if len(ch.Totals) != c {
			return dst, fmt.Errorf("message: child %d has %d totals for %d components", ch.Child, len(ch.Totals), c)
		}
	}
	members := len(a.FMatrix) / c
	size := 4 + 4 + 1 + 1 + 1 + 1 + 8 + len(a.ClusterSums)*4 + len(a.FMatrix)*4 +
		len(a.Children)*(4+4+c*4)
	dst, buf := extend(dst, size)
	binary.BigEndian.PutUint32(buf, uint32(int32(a.Origin)))
	binary.BigEndian.PutUint32(buf[4:], a.ClusterCnt)
	buf[8] = byte(c)
	buf[9] = 0
	if len(a.ClusterSums) > 0 {
		buf[9] = 1
	}
	buf[10] = byte(members)
	buf[11] = byte(len(a.Children))
	binary.BigEndian.PutUint64(buf[12:], a.Mask)
	off := putElems(buf, 20, a.ClusterSums)
	off = putElems(buf, off, a.FMatrix)
	for _, ch := range a.Children {
		binary.BigEndian.PutUint32(buf[off:], uint32(int32(ch.Child)))
		binary.BigEndian.PutUint32(buf[off+4:], ch.Count)
		off = putElems(buf, off+8, ch.Totals)
	}
	return dst, nil
}

// UnmarshalAnnounce decodes an Announce payload.
func UnmarshalAnnounce(buf []byte) (Announce, error) {
	if len(buf) < 20 {
		return Announce{}, ErrTruncated
	}
	c := int(buf[8])
	hasSums := buf[9] == 1
	members := int(buf[10])
	nc := int(buf[11])
	if c == 0 || c > MaxComponents || members > MaxClusterSize {
		return Announce{}, fmt.Errorf("message: bad announce dims c=%d m=%d", c, members)
	}
	sumLen := 0
	if hasSums {
		sumLen = c
	}
	need := 20 + sumLen*4 + members*c*4 + nc*(8+c*4)
	if len(buf) < need {
		return Announce{}, ErrTruncated
	}
	a := Announce{
		Origin:     topo.NodeID(int32(binary.BigEndian.Uint32(buf))),
		ClusterCnt: binary.BigEndian.Uint32(buf[4:]),
		Components: uint8(c),
		Mask:       binary.BigEndian.Uint64(buf[12:]),
	}
	off := 20
	if hasSums {
		a.ClusterSums = make([]field.Element, c)
		for i := range a.ClusterSums {
			a.ClusterSums[i] = field.Element(binary.BigEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	if members > 0 {
		a.FMatrix = make([]field.Element, members*c)
		for i := range a.FMatrix {
			a.FMatrix[i] = field.Element(binary.BigEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	if nc > 0 {
		a.Children = make([]ChildEntry, nc)
	}
	for i := 0; i < nc; i++ {
		ch := ChildEntry{
			Child: topo.NodeID(int32(binary.BigEndian.Uint32(buf[off:]))),
			Count: binary.BigEndian.Uint32(buf[off+4:]),
		}
		off += 8
		ch.Totals = make([]field.Element, c)
		for k := range ch.Totals {
			ch.Totals[k] = field.Element(binary.BigEndian.Uint32(buf[off:]))
			off += 4
		}
		a.Children[i] = ch
	}
	return a, nil
}

// UnmarshalAnnounceInto decodes an Announce payload into *a, reusing the
// capacity of its slices, each child's Totals vector included. A witness
// overhears every announce in
// range, so decoding into one scratch value makes that allocation-free once
// warm. It accepts and rejects exactly what UnmarshalAnnounce does and
// yields an equal value, except that an empty field may be a non-nil slice
// of length 0; on error *a is left unchanged. The next call overwrites
// every slice, so a caller that keeps any part of the announce must copy it.
func UnmarshalAnnounceInto(buf []byte, a *Announce) error {
	if len(buf) < 20 {
		return ErrTruncated
	}
	c := int(buf[8])
	hasSums := buf[9] == 1
	members := int(buf[10])
	nc := int(buf[11])
	if c == 0 || c > MaxComponents || members > MaxClusterSize {
		return fmt.Errorf("message: bad announce dims c=%d m=%d", c, members)
	}
	sumLen := 0
	if hasSums {
		sumLen = c
	}
	if len(buf) < 20+sumLen*4+members*c*4+nc*(8+c*4) {
		return ErrTruncated
	}
	a.Origin = topo.NodeID(int32(binary.BigEndian.Uint32(buf)))
	a.ClusterCnt = binary.BigEndian.Uint32(buf[4:])
	a.Components = uint8(c)
	a.Mask = binary.BigEndian.Uint64(buf[12:])
	a.ClusterSums = resize(a.ClusterSums, sumLen)
	off := getElems(buf, 20, a.ClusterSums)
	a.FMatrix = resize(a.FMatrix, members*c)
	off = getElems(buf, off, a.FMatrix)
	a.Children = growChildren(a.Children, nc)
	for i := range a.Children {
		ch := &a.Children[i]
		ch.Child = topo.NodeID(int32(binary.BigEndian.Uint32(buf[off:])))
		ch.Count = binary.BigEndian.Uint32(buf[off+4:])
		ch.Totals = resize(ch.Totals, c)
		off = getElems(buf, off+8, ch.Totals)
	}
	return nil
}

// growChildren returns children resized to n entries, keeping the entries
// it held, Totals buffers included. Entries it adds share one block of
// MaxComponents-wide Totals buffers, so a decode that meets more children
// than ever before allocates twice rather than once per new child.
func growChildren(children []ChildEntry, n int) []ChildEntry {
	if have := cap(children); have < n {
		children = append(children[:have], make([]ChildEntry, n-have)...)
		block := make([]field.Element, (n-have)*MaxComponents)
		for i := have; i < n; i++ {
			j := (i - have) * MaxComponents
			children[i].Totals = block[j : j : j+MaxComponents]
		}
	}
	return children[:n]
}

// getElems fills dst from the big-endian words at buf[off:] and returns the
// offset just past them.
func getElems(buf []byte, off int, dst []field.Element) int {
	for i := range dst {
		dst[i] = field.Element(binary.BigEndian.Uint32(buf[off:]))
		off += 4
	}
	return off
}

// putElems writes src as big-endian words at buf[off:] and returns the
// offset just past them.
func putElems(buf []byte, off int, src []field.Element) int {
	for _, v := range src {
		binary.BigEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	return off
}

// Takeover is a deputy's head-failover claim, broadcast to the cluster when
// the head-silence watchdog expires: neither a Reassemble nor the head's
// Announce arrived by the cluster's announce deadline. Head names the silent
// head, so members can check the claim against their own roster (the deputy
// identity itself is the frame's From). Members that accept the claim
// re-report their assembled columns to the deputy; members that already
// overheard the named head announce treat the claim as a dual-announce
// attack and raise an alarm.
type Takeover struct {
	Head topo.NodeID // the silent cluster head being stood in for
}

// MarshalTakeover encodes a Takeover payload.
func MarshalTakeover(t Takeover) []byte { return AppendTakeover(nil, t) }

// AppendTakeover appends the encoding of a Takeover payload to dst.
func AppendTakeover(dst []byte, t Takeover) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(int32(t.Head)))
}

// UnmarshalTakeover decodes a Takeover payload.
func UnmarshalTakeover(buf []byte) (Takeover, error) {
	if len(buf) < 4 {
		return Takeover{}, ErrTruncated
	}
	return Takeover{Head: topo.NodeID(int32(binary.BigEndian.Uint32(buf)))}, nil
}

// Relay wraps an inner frame a cluster head forwards verbatim between two
// members that are out of mutual radio range. The inner payload stays
// encrypted end-to-end; the head cannot read it.
type Relay struct {
	Inner []byte // marshalled inner frame
}

// MarshalRelay encodes a Relay payload.
func MarshalRelay(r Relay) ([]byte, error) { return AppendRelay(nil, r) }

// AppendRelay appends the encoding of a Relay payload to dst: a 2-byte
// length, then the inner frame. On error dst is returned unchanged.
func AppendRelay(dst []byte, r Relay) ([]byte, error) {
	if len(r.Inner) > 0xFFFF-2 {
		return dst, fmt.Errorf("message: relayed frame too large: %d", len(r.Inner))
	}
	dst, buf := extend(dst, 2+len(r.Inner))
	binary.BigEndian.PutUint16(buf, uint16(len(r.Inner)))
	copy(buf[2:], r.Inner)
	return dst, nil
}

// UnmarshalRelay decodes a Relay payload. Inner is a view into buf, capped
// at its own length, not a copy: the relay hop forwards or unwraps it within
// the same reception.
func UnmarshalRelay(buf []byte) (Relay, error) {
	if len(buf) < 2 {
		return Relay{}, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(buf))
	if len(buf) < 2+n {
		return Relay{}, ErrTruncated
	}
	return Relay{Inner: buf[2 : 2+n : 2+n]}, nil
}
