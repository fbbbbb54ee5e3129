package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// vnodes is how many virtual points each shard owns on the ring. 64 keeps
// the expected per-shard key share within a few percent of 1/N without
// making ring construction or lookup noticeable.
const vnodes = 64

// ring consistent-hashes query keys onto shard ordinals. Each shard owns
// vnodes points on a 64-bit circle; a key belongs to the first point at or
// after its hash. Adding or removing one shard therefore remaps only ~1/N
// of the keyspace — the property that makes a future resharding story
// cheap — and walking clockwise from the owner yields the deterministic
// shed order used when the owner is draining or full.
type ring struct {
	points []ringPoint // sorted by hash, ascending
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

func newRing(shards int) *ring {
	r := &ring{shards: shards}
	r.points = make([]ringPoint, 0, shards*vnodes)
	var buf [16]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(s))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(v))
			r.points = append(r.points, ringPoint{hash: hash64(buf[:]), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// owner returns the shard owning the key.
func (r *ring) owner(key uint64) int {
	return r.points[r.search(key)].shard
}

// walk returns every shard exactly once, starting at the key's owner and
// proceeding clockwise — the order a coordinator tries shards so a
// draining or full owner sheds deterministically to its ring successor.
func (r *ring) walk(key uint64) []int {
	out := make([]int, 0, r.shards)
	seen := make([]bool, r.shards)
	for i, n := r.search(key), 0; n < len(r.points) && len(out) < r.shards; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// search finds the index of the first point at or after key (wrapping).
func (r *ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// hash64 is FNV-1a with a murmur-style avalanche finalizer. The finalizer
// matters: raw FNV is linear in a single-byte change, so inputs differing
// only in one counter byte (consecutive seeds, vnode ordinals) hash to an
// arithmetic progression and the "ring" degenerates into a lattice where
// consecutive keys track one shard's arcs. Both stages are deterministic
// across processes, so a key routes to the same shard on every run.
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// queryKey derives the ring key for a one-shot query from its kind and
// effective seed — the pair that determines the answer bit-for-bit, so
// identical queries always land on (and cache-warm) the same shard.
func queryKey(kind int64, seed int64) uint64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(kind))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(seed))
	return hash64(buf[:])
}
