package mm

import (
	"fmt"
	"slices"
	"sort"
)

// Ring is a consistent-hash ring mapping file keys onto metadata shards.
// The paper runs a single MM but notes that "a distributed MM can be
// achieved by a Distributed Hash Table (DHT) as shown in [28]" (ASDF);
// Ring supplies that partitioning for ShardedManager. Each shard owns
// VirtualNodes points on the ring so key ownership stays balanced even
// with few shards, and the mapping depends only on (shard count,
// VirtualNodes) — every component computes identical routing with no
// coordination.
type Ring struct {
	points []ringPoint
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// VirtualNodes is the number of ring points per shard.
const VirtualNodes = 64

// NewRing builds a ring over n shards. n must be positive.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("mm: ring over %d shards", n))
	}
	points := make([]ringPoint, 0, n*VirtualNodes)
	for s := 0; s < n; s++ {
		for v := 0; v < VirtualNodes; v++ {
			points = append(points, ringPoint{
				hash:  hash64(fmt.Sprintf("shard%d/vnode%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	return &Ring{points: points, shards: n}
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Successors returns the n distinct shards owning the given key in ring
// order: the primary (the successor point, as Owner) followed by the next
// distinct shards walking clockwise, wrapping at the top. n is clamped to
// the shard count, so a request for more successors than shards returns
// every shard exactly once. This is the replica set of a key under
// R-way metadata replication: the first entry is the key's primary and
// the rest mirror it.
func (r *Ring) Successors(key uint64, n int) []int {
	return r.appendSuccessors(nil, key, n)
}

// appendSuccessors appends Successors(key, n) to dst: the replica set
// into memory the caller owns, so routing a call allocates nothing.
func (r *Ring) appendSuccessors(dst []int, key uint64, n int) []int {
	n = min(n, r.shards)
	if n <= 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	own := len(dst)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; len(dst)-own < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(dst[own:], p.shard) {
			dst = append(dst, p.shard)
		}
	}
	return dst
}

// SuccessorsOfFile routes a file ID to its replica set (see Successors).
func (r *Ring) SuccessorsOfFile(file int64, n int) []int {
	return r.Successors(mix64(uint64(file)), n)
}

// AppendSuccessorsOfFile appends SuccessorsOfFile(file, n) to dst, so a
// router that owns the memory allocates nothing per call.
func (r *Ring) AppendSuccessorsOfFile(dst []int, file int64, n int) []int {
	return r.appendSuccessors(dst, mix64(uint64(file)), n)
}

// hash64 is FNV-1a with a splitmix finalizer.
func hash64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer, giving avalanche over raw IDs.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
