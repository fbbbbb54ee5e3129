package message

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/topo"
)

// The append encoders and DecodeValuesInto are the allocation-free forms
// the cluster protocol encodes and decodes its payloads with; the Marshal*
// and UnmarshalValues forms are their reference twins.

// FuzzDecodeValuesInto requires DecodeValuesInto to accept exactly the
// inputs UnmarshalValues accepts with a count of len(dst), to yield the same
// values, and to fail with UnmarshalValues' error on the inputs it rejects,
// leaving dst untouched whenever it fails.
func FuzzDecodeValuesInto(f *testing.F) {
	seed, _ := MarshalValues([]field.Element{1, 2, 3})
	f.Add(seed, uint8(3))
	f.Add(seed, uint8(2))
	f.Add(append(seed, 0xAA), uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{17}, uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		dst := make([]field.Element, int(n)%(MaxComponents+2))
		for i := range dst {
			dst[i] = 0xDEAD
		}
		err := DecodeValuesInto(dst, data)
		want, wantErr := UnmarshalValues(data)
		switch {
		case wantErr != nil:
			if !sameError(err, wantErr) {
				t.Fatalf("error %v, UnmarshalValues says %v", err, wantErr)
			}
		case len(want) != len(dst):
			if err == nil {
				t.Fatalf("accepted %d values into %d slots", len(want), len(dst))
			}
		case err != nil:
			t.Fatalf("rejected %x that UnmarshalValues decodes: %v", data, err)
		case !slices.Equal(dst, want):
			t.Fatalf("decoded %v, UnmarshalValues %v", dst, want)
		}
		if err != nil && slices.ContainsFunc(dst, func(e field.Element) bool { return e != 0xDEAD }) {
			t.Fatalf("failed decode wrote %v", dst)
		}
	})
}

// FuzzAppendEncoders requires every append encoder, on a non-empty prefix
// with and without spare capacity, to produce prefix ‖ the Marshal form's
// bytes (or the Marshal form's error and the prefix alone, the Marshal form
// then returning nil), leaving the prefix intact.
func FuzzAppendEncoders(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte("sixteen byte pld"), uint8(40))
	f.Add([]byte{9}, []byte{}, uint8(0))
	f.Add([]byte{7, 7}, bytes.Repeat([]byte{0xFF}, 4*(MaxComponents+1)), uint8(3))
	f.Fuzz(func(t *testing.T, prefix, data []byte, extra uint8) {
		if len(prefix) == 0 {
			prefix = []byte{0x5A}
		}
		var vs []field.Element
		for i := 0; i+4 <= len(data); i += 4 {
			vs = append(vs, field.Element(binary.BigEndian.Uint32(data[i:])))
		}
		kind := KindShare
		if len(data) > 0 {
			kind = Kind(data[0] % uint8(kindEnd+1)) // kinds 0 and kindEnd are invalid
		}
		msg := Message{Kind: kind, From: 3, To: BroadcastID, Round: 7, Seq: 9, Payload: data}
		c := max(1, len(vs)%5)
		ann := Announce{Origin: 4, ClusterCnt: uint32(len(vs)), Components: uint8(c), Mask: 0x1F, FMatrix: vs}
		if len(vs) >= c {
			ann.ClusterSums = vs[:c]
			ann.Children = []ChildEntry{{Child: 8, Totals: vs[len(vs)-c:], Count: 2}}
		}
		asm := Assembled{Fs: vs, Mask: 0xF0F0}
		alarm := Alarm{Suspect: 5, Observed: field.Element(len(data)), Expected: 6}
		// Roster entries from the data's words: past MaxClusterSize entries
		// both forms fail.
		roster := Roster{Head: topo.NodeID(len(data))}
		for i, v := range vs {
			roster.Entries = append(roster.Entries, RosterEntry{ID: topo.NodeID(int32(v)), Seed: field.Element(i)})
		}
		for range int(extra) % 3 {
			roster.Entries = append(roster.Entries, roster.Entries...)
		}
		hello := Hello{Origin: topo.NodeID(int32(len(data)) - 2), Role: extra, Hops: uint16(len(prefix))}
		join := Join{Head: topo.NodeID(-int(extra)), Seed: field.Element(len(vs))}
		reassemble := Reassemble{Mask: uint64(len(data))<<32 | uint64(extra)}
		takeover := Takeover{Head: topo.NodeID(int32(len(vs)) - 1)}
		for _, enc := range []struct {
			name string
			ref  func() ([]byte, error)
			app  func([]byte) ([]byte, error)
		}{
			{"Values", func() ([]byte, error) { return MarshalValues(vs) },
				func(d []byte) ([]byte, error) { return AppendValues(d, vs) }},
			{"Marshal", msg.Marshal, msg.AppendMarshal},
			{"Relay", func() ([]byte, error) { return MarshalRelay(Relay{Inner: data}) },
				func(d []byte) ([]byte, error) { return AppendRelay(d, Relay{Inner: data}) }},
			{"Assembled", func() ([]byte, error) { return MarshalAssembled(asm) },
				func(d []byte) ([]byte, error) { return AppendAssembled(d, asm) }},
			{"Announce", func() ([]byte, error) { return MarshalAnnounce(ann) },
				func(d []byte) ([]byte, error) { return AppendAnnounce(d, ann) }},
			{"Alarm", func() ([]byte, error) { return MarshalAlarm(alarm), nil },
				func(d []byte) ([]byte, error) { return AppendAlarm(d, alarm), nil }},
			{"Roster", func() ([]byte, error) { return MarshalRoster(roster) },
				func(d []byte) ([]byte, error) { return AppendRoster(d, roster) }},
			{"Hello", func() ([]byte, error) { return MarshalHello(hello), nil },
				func(d []byte) ([]byte, error) { return AppendHello(d, hello), nil }},
			{"Join", func() ([]byte, error) { return MarshalJoin(join), nil },
				func(d []byte) ([]byte, error) { return AppendJoin(d, join), nil }},
			{"Reassemble", func() ([]byte, error) { return MarshalReassemble(reassemble), nil },
				func(d []byte) ([]byte, error) { return AppendReassemble(d, reassemble), nil }},
			{"Takeover", func() ([]byte, error) { return MarshalTakeover(takeover), nil },
				func(d []byte) ([]byte, error) { return AppendTakeover(d, takeover), nil }},
		} {
			want, wantErr := enc.ref()
			for _, spare := range []int{0, int(extra), len(want)} {
				// Dirty spare capacity: an encoder must write every byte it
				// appends.
				dst := append(slices.Clone(prefix), bytes.Repeat([]byte{0xEE}, spare)...)[:len(prefix)]
				got, err := enc.app(dst)
				if !sameError(err, wantErr) {
					t.Fatalf("%s: error %v, Marshal form says %v", enc.name, err, wantErr)
				}
				if !bytes.Equal(dst, prefix) {
					t.Fatalf("%s: prefix changed to %x", enc.name, dst)
				}
				if exp := append(slices.Clone(prefix), want...); !bytes.Equal(got, exp) {
					t.Fatalf("%s with %d spare bytes: %x, want %x", enc.name, spare, got, exp)
				}
			}
		}
	})
}

// TestAppendIntoCapacityAllocatesNothing gates the encoders the cluster
// protocol fills its payload arena with: with enough spare capacity they
// allocate nothing.
func TestAppendIntoCapacityAllocatesNothing(t *testing.T) {
	vs := []field.Element{1, 2, 3, 4}
	inner, err := Build(KindShare, 1, 2, 3, MarshalValue(Value{V: 4})).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	msg := Build(KindShare, 1, 2, 3, inner)
	ann := Announce{Origin: 1, ClusterSums: vs[:1], ClusterCnt: 4, Components: 1, Mask: 0xF, FMatrix: vs}
	roster := Roster{Head: 1, Entries: []RosterEntry{{ID: 1, Seed: 1}, {ID: 2, Seed: 2}, {ID: 3, Seed: 3}}}
	buf := make([]byte, 0, 1024)
	for name, enc := range map[string]func() ([]byte, error){
		"AppendValues":     func() ([]byte, error) { return AppendValues(buf, vs) },
		"AppendMarshal":    func() ([]byte, error) { return msg.AppendMarshal(buf) },
		"AppendRelay":      func() ([]byte, error) { return AppendRelay(buf, Relay{Inner: inner}) },
		"AppendAssembled":  func() ([]byte, error) { return AppendAssembled(buf, Assembled{Fs: vs, Mask: 3}) },
		"AppendAnnounce":   func() ([]byte, error) { return AppendAnnounce(buf, ann) },
		"AppendAlarm":      func() ([]byte, error) { return AppendAlarm(buf, Alarm{Suspect: 1}), nil },
		"AppendRoster":     func() ([]byte, error) { return AppendRoster(buf, roster) },
		"AppendHello":      func() ([]byte, error) { return AppendHello(buf, Hello{Origin: 1, Role: 1, Hops: 2}), nil },
		"AppendJoin":       func() ([]byte, error) { return AppendJoin(buf, Join{Head: 1, Seed: 2}), nil },
		"AppendReassemble": func() ([]byte, error) { return AppendReassemble(buf, Reassemble{Mask: 7}), nil },
		"AppendTakeover":   func() ([]byte, error) { return AppendTakeover(buf, Takeover{Head: 3}), nil },
	} {
		if n := testing.AllocsPerRun(100, func() { _, _ = enc() }); n != 0 {
			t.Errorf("%s: %v allocs into spare capacity, want 0", name, n)
		}
	}
}
