package message

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/topo"
)

// Fuzz targets: every decoder must be total (no panics, no over-reads) on
// arbitrary input, and every successful decode must re-encode to an
// equivalent frame.

func FuzzUnmarshalMessage(f *testing.F) {
	m := Build(KindHello, 1, 2, 3, MarshalHello(Hello{Origin: 4, Role: 1, Hops: 2}))
	seed, _ := m.Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if back.Kind != m.Kind || back.From != m.From || back.To != m.To ||
			back.Round != m.Round || back.Seq != m.Seq || !bytes.Equal(back.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, m)
		}
	})
}

func FuzzUnmarshalRoster(f *testing.F) {
	r := Roster{Head: 3, Entries: []RosterEntry{{ID: 3, Seed: 4}, {ID: 9, Seed: 10}}}
	seed, _ := MarshalRoster(r)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRoster(data)
		if err != nil {
			return
		}
		out, err := MarshalRoster(r)
		if err != nil {
			t.Fatalf("decoded roster failed to re-encode: %v", err)
		}
		back, err := UnmarshalRoster(out)
		if err != nil || back.Head != r.Head || len(back.Entries) != len(r.Entries) {
			t.Fatalf("roster round trip mismatch: %+v vs %+v (%v)", back, r, err)
		}
	})
}

func FuzzUnmarshalAnnounce(f *testing.F) {
	a := Announce{
		Origin:      7,
		ClusterSums: []field.Element{100, 200},
		ClusterCnt:  3,
		Components:  2,
		FMatrix:     []field.Element{1, 2, 3, 4},
		Children:    []ChildEntry{{Child: 9, Totals: []field.Element{5, 6}, Count: 2}},
	}
	seed, _ := MarshalAnnounce(a)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAnnounce(data)
		if err != nil {
			return
		}
		out, err := MarshalAnnounce(a)
		if err != nil {
			t.Fatalf("decoded announce failed to re-encode: %v", err)
		}
		back, err := UnmarshalAnnounce(out)
		if err != nil {
			t.Fatalf("re-encode decode: %v", err)
		}
		if back.Origin != a.Origin || back.ClusterCnt != a.ClusterCnt ||
			back.Components != a.Components || len(back.Children) != len(a.Children) {
			t.Fatalf("announce round trip mismatch")
		}
		// Totals must agree.
		ta, tb := a.Total(), back.Total()
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("totals diverge: %v vs %v", ta, tb)
			}
		}
	})
}

func FuzzUnmarshalAssembled(f *testing.F) {
	seed, _ := MarshalAssembled(Assembled{Fs: []field.Element{1, 2, 3}, Mask: 7})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAssembled(data)
		if err != nil {
			return
		}
		out, err := MarshalAssembled(a)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := UnmarshalAssembled(out)
		if err != nil || back.Mask != a.Mask || len(back.Fs) != len(a.Fs) {
			t.Fatalf("assembled round trip mismatch")
		}
	})
}

func FuzzUnmarshalRelay(f *testing.F) {
	inner, _ := Build(KindShare, 1, 2, 1, MarshalValue(Value{V: 3})).Marshal()
	seed, _ := MarshalRelay(Relay{Inner: inner})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRelay(data)
		if err != nil {
			return
		}
		out, err := MarshalRelay(r)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := UnmarshalRelay(out)
		if err != nil || !bytes.Equal(back.Inner, r.Inner) {
			t.Fatalf("relay round trip mismatch")
		}
	})
}

// bigAnnounce is a valid announce payload with every field long: decoding
// it first leaves a dirty scratch whose stale tails a shorter frame must
// not leak.
func bigAnnounce(tb testing.TB) []byte {
	tb.Helper()
	const c, m = MaxComponents, 8
	elems := func(n, base int) []field.Element {
		out := make([]field.Element, n)
		for i := range out {
			out[i] = field.Element(base + i)
		}
		return out
	}
	a := Announce{Origin: 77, ClusterSums: elems(c, 1), ClusterCnt: m, Components: c,
		Mask: FullMask(m), FMatrix: elems(m*c, 100)}
	for i := 0; i < 12; i++ {
		a.Children = append(a.Children, ChildEntry{Child: topo.NodeID(200 + i), Totals: elems(c, 1000*i), Count: uint32(i)})
	}
	buf, err := MarshalAnnounce(a)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// bigRoster is a valid roster payload of MaxClusterSize entries.
func bigRoster(tb testing.TB) []byte {
	tb.Helper()
	r := Roster{Head: 1}
	for i := 0; i < MaxClusterSize; i++ {
		r.Entries = append(r.Entries, RosterEntry{ID: topo.NodeID(i + 1), Seed: field.Element(i + 1)})
	}
	buf, err := MarshalRoster(r)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// sameError reports whether two decode errors are the same outcome.
func sameError(a, b error) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// announcesEqual compares announces field by field, treating nil and empty
// slices alike.
func announcesEqual(a, b Announce) bool {
	return a.Origin == b.Origin && a.ClusterCnt == b.ClusterCnt &&
		a.Components == b.Components && a.Mask == b.Mask &&
		slices.Equal(a.ClusterSums, b.ClusterSums) && slices.Equal(a.FMatrix, b.FMatrix) &&
		slices.EqualFunc(a.Children, b.Children, ChildEntry.Equal)
}

// cloneAnnounce deep-copies an announce so a later decode cannot alter it.
func cloneAnnounce(a Announce) Announce {
	out := a
	out.ClusterSums = slices.Clone(a.ClusterSums)
	out.FMatrix = slices.Clone(a.FMatrix)
	out.Children = make([]ChildEntry, len(a.Children))
	for i, ch := range a.Children {
		out.Children[i] = ChildEntry{Child: ch.Child, Totals: slices.Clone(ch.Totals), Count: ch.Count}
	}
	return out
}

// FuzzUnmarshalAnnounceInto pins the decode-into variant to the allocating
// decoder, its reference twin: on arbitrary bytes both must fail alike or
// decode equal values, whether the destination is fresh or a dirty scratch
// left by a larger frame, and a failed decode must leave the destination
// untouched.
func FuzzUnmarshalAnnounceInto(f *testing.F) {
	big := bigAnnounce(f)
	f.Add(big)
	f.Add(big[:len(big)-1])
	small, _ := MarshalAnnounce(Announce{Origin: 7, ClusterSums: []field.Element{100, 200}, ClusterCnt: 3,
		Components: 2, FMatrix: []field.Element{1, 2, 3, 4},
		Children: []ChildEntry{{Child: 9, Totals: []field.Element{5, 6}, Count: 2}}})
	f.Add(small)
	failed, _ := MarshalAnnounce(Announce{Origin: 4, Components: 1})
	f.Add(failed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := UnmarshalAnnounce(data)
		var dirty Announce
		if err := UnmarshalAnnounceInto(big, &dirty); err != nil {
			t.Fatal(err)
		}
		for name, dst := range map[string]*Announce{"fresh": {}, "dirty": &dirty} {
			before := cloneAnnounce(*dst)
			err := UnmarshalAnnounceInto(data, dst)
			if !sameError(err, wantErr) {
				t.Fatalf("%s: err = %v, reference err = %v", name, err, wantErr)
			}
			if err != nil {
				if !announcesEqual(*dst, before) {
					t.Fatalf("%s: failed decode modified the destination", name)
				}
				continue
			}
			if !announcesEqual(*dst, want) {
				t.Fatalf("%s: decoded %+v, reference %+v", name, *dst, want)
			}
		}
	})
}

// FuzzUnmarshalRosterInto pins the decode-into roster decoder to the
// allocating one, into a fresh and into a dirty destination.
func FuzzUnmarshalRosterInto(f *testing.F) {
	big := bigRoster(f)
	f.Add(big)
	f.Add(big[:len(big)-1])
	small, _ := MarshalRoster(Roster{Head: 3, Entries: []RosterEntry{{ID: 3, Seed: 4}, {ID: 9, Seed: 10}}})
	f.Add(small)
	f.Add([]byte{0, 0, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := UnmarshalRoster(data)
		var dirty Roster
		if err := UnmarshalRosterInto(big, &dirty); err != nil {
			t.Fatal(err)
		}
		for name, dst := range map[string]*Roster{"fresh": {}, "dirty": &dirty} {
			before := Roster{Head: dst.Head, Entries: slices.Clone(dst.Entries)}
			err := UnmarshalRosterInto(data, dst)
			if !sameError(err, wantErr) {
				t.Fatalf("%s: err = %v, reference err = %v", name, err, wantErr)
			}
			got := want
			if err != nil {
				got = before
			}
			if dst.Head != got.Head || !slices.Equal(dst.Entries, got.Entries) {
				t.Fatalf("%s: decoded %+v, want %+v (err %v)", name, *dst, got, err)
			}
		}
	})
}

// TestWarmDecodeIntoAllocatesNothing gates the receive path's decoders:
// decoding into warm scratch or a caller's vector, and viewing a relay's
// inner frame, allocate nothing.
func TestWarmDecodeIntoAllocatesNothing(t *testing.T) {
	ann, ros := bigAnnounce(t), bigRoster(t)
	frame, err := Build(KindShare, 1, 2, 3, MarshalValue(Value{V: 4})).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	relay, err := MarshalRelay(Relay{Inner: frame})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := MarshalValues([]field.Element{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	var (
		a   Announce
		r   Roster
		m   Message
		rel Relay
		vs  = make([]field.Element, 3)
	)
	for name, decode := range map[string]func() error{
		"UnmarshalAnnounceInto": func() error { return UnmarshalAnnounceInto(ann, &a) },
		"UnmarshalRosterInto":   func() error { return UnmarshalRosterInto(ros, &r) },
		"UnmarshalInto":         func() error { return UnmarshalInto(frame, &m) },
		"DecodeValuesInto":      func() error { return DecodeValuesInto(vs, vals) },
		"UnmarshalRelay": func() (err error) {
			rel, err = UnmarshalRelay(relay)
			return err
		},
	} {
		if err := decode(); err != nil { // warm the scratch
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = decode() }); n != 0 {
			t.Errorf("%s: %v allocs per warm decode, want 0", name, n)
		}
	}
	if !bytes.Equal(rel.Inner, frame) || m.Kind != KindShare || len(r.Entries) != MaxClusterSize ||
		len(a.Children) != 12 || vs[2] != 7 {
		t.Fatal("warm decodes produced the wrong values")
	}
}

// TestDecodeViewsAlias pins the no-copy contract of the view decoders:
// UnmarshalRelay and UnmarshalInto return slices of their input, capped so
// an append cannot write past the view, while Unmarshal still copies.
func TestDecodeViewsAlias(t *testing.T) {
	frame, err := Build(KindShare, 1, 2, 3, []byte{9, 8, 7}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	relay, err := MarshalRelay(Relay{Inner: frame})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := UnmarshalRelay(relay)
	if err != nil {
		t.Fatal(err)
	}
	var view Message
	if err := UnmarshalInto(rel.Inner, &view); err != nil {
		t.Fatal(err)
	}
	owned, err := Unmarshal(rel.Inner)
	if err != nil {
		t.Fatal(err)
	}
	if &rel.Inner[0] != &relay[2] || &view.Payload[0] != &relay[2+HeaderSize] {
		t.Error("views copy their input")
	}
	if cap(rel.Inner) != len(frame) || cap(view.Payload) != 3 {
		t.Errorf("views not capped: cap %d and %d", cap(rel.Inner), cap(view.Payload))
	}
	if &owned.Payload[0] == &relay[2+HeaderSize] {
		t.Error("Unmarshal aliases its input")
	}
	var empty Message
	noPayload, _ := Build(KindAck, 1, 2, 3, nil).Marshal()
	if err := UnmarshalInto(noPayload, &empty); err != nil || empty.Payload != nil {
		t.Errorf("empty payload = %v (err %v), want nil", empty.Payload, err)
	}
	if err := UnmarshalInto(frame[:HeaderSize], &empty); !errors.Is(err, ErrTruncated) || empty.Kind != KindAck {
		t.Errorf("truncated decode: err %v, destination %+v", err, empty)
	}
}

// fuzzFixed checks a fixed-width decoder reachable through MAC.Inject on
// arbitrary bytes: it fails with ErrTruncated exactly when the input is
// shorter than size, and otherwise decodes a value that re-encodes to the
// input's first size bytes.
func fuzzFixed[T any](f *testing.F, size int, seed T, enc func(T) []byte, dec func([]byte) (T, error)) {
	f.Add(enc(seed))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, size+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := dec(data)
		if len(data) < size {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%d-byte input: err = %v, want ErrTruncated", len(data), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte input: %v", len(data), err)
		}
		if out := enc(v); !bytes.Equal(out, data[:size]) {
			t.Fatalf("decoded %+v re-encodes to %x, input %x", v, out, data[:size])
		}
	})
}

func FuzzUnmarshalHello(f *testing.F) {
	fuzzFixed(f, helloSize, Hello{Origin: 4, Role: 1, Hops: 2}, MarshalHello, UnmarshalHello)
}

func FuzzUnmarshalJoin(f *testing.F) {
	fuzzFixed(f, joinSize, Join{Head: 3, Seed: 9}, MarshalJoin, UnmarshalJoin)
}

func FuzzUnmarshalValue(f *testing.F) {
	fuzzFixed(f, valueSize, Value{V: 12345}, MarshalValue, UnmarshalValue)
}

func FuzzUnmarshalAggregate(f *testing.F) {
	fuzzFixed(f, aggregateSize, Aggregate{Sum: 77, Count: 5}, MarshalAggregate, UnmarshalAggregate)
}

func FuzzUnmarshalAlarm(f *testing.F) {
	fuzzFixed(f, alarmSize, Alarm{Suspect: 6, Observed: 10, Expected: 11}, MarshalAlarm, UnmarshalAlarm)
}

func FuzzUnmarshalTakeover(f *testing.F) {
	fuzzFixed(f, 4, Takeover{Head: 8}, MarshalTakeover, UnmarshalTakeover)
}

func FuzzUnmarshalReassemble(f *testing.F) {
	fuzzFixed(f, 8, Reassemble{Mask: 0b10111}, MarshalReassemble, UnmarshalReassemble)
}

// FuzzUnmarshalAttestResp holds the attestation response to the fixed-width
// contract, except that only verdict bytes 0 and 1 decode: a success
// happens exactly when the input is long enough and its verdict byte is
// valid, and re-encodes to the input prefix.
func FuzzUnmarshalAttestResp(f *testing.F) {
	f.Add(MarshalAttestResp(AttestResp{Subject: 5, Reported: 1234, Consistent: true}))
	f.Add(MarshalAttestResp(AttestResp{Subject: -1, Reported: 7}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 9, 2})
	f.Add(bytes.Repeat([]byte{0xFF}, attestRespSize+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := UnmarshalAttestResp(data)
		if len(data) < attestRespSize {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%d-byte input: err = %v, want ErrTruncated", len(data), err)
			}
			return
		}
		if data[8] > 1 {
			if err == nil {
				t.Fatalf("verdict byte %d accepted as %+v", data[8], v)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte input: %v", len(data), err)
		}
		if out := MarshalAttestResp(v); !bytes.Equal(out, data[:attestRespSize]) {
			t.Fatalf("decoded %+v re-encodes to %x, input %x", v, out, data[:attestRespSize])
		}
	})
}

// FuzzUnmarshalIDList checks the attestation challenge's sample set: a
// decode succeeds exactly when the input holds the announced count of IDs,
// and a success re-encodes to the input prefix.
func FuzzUnmarshalIDList(f *testing.F) {
	seed, _ := MarshalIDList([]topo.NodeID{1, 42, -1, 300})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := UnmarshalIDList(data)
		want := -1 // bytes a complete list needs; -1 when even the count is missing
		if len(data) >= 2 {
			want = 2 + 4*(int(data[0])<<8|int(data[1]))
		}
		if want < 0 || len(data) < want {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%d-byte input needing %d: err = %v, want ErrTruncated", len(data), want, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte input: %v", len(data), err)
		}
		out, err := MarshalIDList(ids)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out, data[:want]) {
			t.Fatalf("decoded %v re-encodes to %x, input %x", ids, out, data[:want])
		}
	})
}

func FuzzUnmarshalValues(f *testing.F) {
	seed, _ := MarshalValues([]field.Element{1, 2, 3})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, err := UnmarshalValues(data)
		if err != nil {
			return
		}
		out, err := MarshalValues(vs)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := UnmarshalValues(out)
		if err != nil || len(back) != len(vs) {
			t.Fatalf("values round trip mismatch")
		}
	})
}
