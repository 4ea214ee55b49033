// Package ring implements the consistent-hash token ring that places keys
// on shards. Each shard projects 64 virtual nodes onto a 64-bit token
// circle; a key belongs to the shard owning the first virtual node at or
// after the key's token (wrapping at the top). Virtual-node tokens are a
// pure function of (seed, shard, vnode), which buys the two properties the
// sharded storage plane is built on:
//
//   - deterministic placement: the same (seed, shard set) always yields the
//     same ring, byte for byte, so same-seed experiment runs replay
//     identically;
//   - minimal movement between ring widths: a ring of N+1 shards is the
//     ring of N shards plus the new shard's own virtual nodes — every key
//     whose successor vnode is untouched keeps its owner, so roughly 1/N of
//     the keyspace moves and nothing else does.
//
// The package imports only the standard library and sits below cassandra in
// the import graph.
package ring

import "sort"

// Config parameterizes ring construction.
type Config struct {
	// Shards is the number of shards; New places shards 0..Shards-1.
	// Default 1.
	Shards int
	// Seed fixes the token placement.
	Seed int64
}

// vnodesPerShard is the number of virtual nodes per shard. More vnodes
// smooth the per-shard keyspace share at the cost of a larger ring; 64
// keeps the max/mean load ratio within ~25% at 8 shards.
const vnodesPerShard = 64

// vnode is one virtual node: a token plus the shard that owns it.
type vnode struct {
	token uint64
	shard int
}

// Ring is an immutable token ring. All methods are safe for concurrent use.
type Ring struct {
	shards []int // live shard IDs, ascending
	vnodes []vnode
}

// New builds the ring for shards 0..cfg.Shards-1 (one shard when
// cfg.Shards is not positive).
func New(cfg Config) *Ring {
	ids := make([]int, max(cfg.Shards, 1))
	for i := range ids {
		ids[i] = i
	}
	r := &Ring{shards: ids, vnodes: make([]vnode, 0, len(ids)*vnodesPerShard)}
	for _, id := range ids {
		for vn := 0; vn < vnodesPerShard; vn++ {
			r.vnodes = append(r.vnodes, vnode{token: vnodeToken(cfg.Seed, id, vn), shard: id})
		}
	}
	// Sort by token; break (astronomically unlikely) token ties by shard
	// then declaration order so placement stays a pure function of inputs.
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.token != b.token {
			return a.token < b.token
		}
		return a.shard < b.shard
	})
	return r
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodeToken places one virtual node: chained mixing disperses (seed,
// shard, vnode) triples that differ in a single coordinate.
func vnodeToken(seed int64, shard, vn int) uint64 {
	z := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	z = mix64(z ^ uint64(shard+1))
	return mix64(z ^ uint64(vn+1)<<1)
}

// KeyToken hashes a key onto the token circle (FNV-64a, inlined so the
// per-operation routing path performs zero allocations). The raw FNV hash
// is run through the splitmix64 finalizer: FNV-1a barely diffuses
// trailing-byte differences into the high bits, so sequential keys like
// YCSB's user00000000..user00000999 would otherwise cluster into a handful
// of token ranges and starve whole shards.
func KeyToken(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return mix64(h)
}

// ShardOf returns the shard owning key.
func (r *Ring) ShardOf(key string) int {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	return r.OwnerOf(KeyToken(key))
}

// OwnerOf returns the shard owning a raw token: the shard of the first
// virtual node at or after the token, wrapping past the top of the circle.
func (r *Ring) OwnerOf(token uint64) int {
	vns := r.vnodes
	lo, hi := 0, len(vns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vns[mid].token < token {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(vns) {
		lo = 0
	}
	return vns[lo].shard
}
