// Package ring is a deterministic consistent-hash token ring with
// virtual nodes, the partitioner behind the cluster's token-aware
// request routing and elastic rebalancing.
//
// Every member owns VNodes tokens whose positions are derived purely
// from (seed, member id, vnode index), so the same seed always yields
// byte-identical token assignment, and adding or removing one member
// moves only the arcs adjacent to that member's own tokens — the
// minimal-movement property elastic topology changes depend on.
//
// Keys hash onto the same 64-bit circle; a key's owners are the first
// RF distinct members encountered walking clockwise from the key's
// position. The ring itself is pure bookkeeping: it never touches
// engines or the network, it only answers ownership questions.
package ring

import (
	"fmt"
	"sort"
)

// Token is one virtual node: a position on the 64-bit hash circle and
// the member that owns the arc ending at it.
type Token struct {
	Pos  uint64
	Node int
}

// Ring is a consistent-hash token ring. The zero value is unusable;
// build one with New. Rings are not safe for concurrent mutation (the
// whole simulation is single-goroutine).
type Ring struct {
	seed    int64
	vnodes  int
	tokens  []Token // sorted by (Pos, Node, vnode draw)
	members []int   // sorted member ids
}

// DefaultVNodes is the virtual-node count used when a caller passes 0.
const DefaultVNodes = 8

// New builds an empty ring whose token positions derive from seed.
func New(seed int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// KeyPos maps a key onto the hash circle.
func KeyPos(key uint64) uint64 { return mix64(key) }

// tokenPos derives one virtual node's position from (seed, node, v)
// alone — no PRNG state, so assignment is reproducible and independent
// of the order members joined.
func tokenPos(seed int64, node, v int) uint64 {
	return mix64(mix64(uint64(seed)) ^ mix64(uint64(node)<<20|uint64(v)))
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Members returns the sorted member ids (a copy).
func (r *Ring) Members() []int {
	return append([]int(nil), r.members...)
}

// HasMember reports whether id is on the ring.
func (r *Ring) HasMember(id int) bool {
	i := sort.SearchInts(r.members, id)
	return i < len(r.members) && r.members[i] == id
}

// Tokens returns the sorted token assignment (a copy).
func (r *Ring) Tokens() []Token {
	return append([]Token(nil), r.tokens...)
}

// Clone returns an independent copy of the ring.
func (r *Ring) Clone() *Ring {
	return &Ring{
		seed:    r.seed,
		vnodes:  r.vnodes,
		tokens:  append([]Token(nil), r.tokens...),
		members: append([]int(nil), r.members...),
	}
}

// AddNode joins member id: its vnode tokens are merged into the sorted
// token list at their seed-derived positions.
func (r *Ring) AddNode(id int) error {
	if id < 0 {
		return fmt.Errorf("ring: negative member id %d", id)
	}
	if r.HasMember(id) {
		return fmt.Errorf("ring: member %d already on the ring", id)
	}
	r.members = append(r.members, id)
	sort.Ints(r.members)
	for v := 0; v < r.vnodes; v++ {
		r.tokens = append(r.tokens, Token{Pos: tokenPos(r.seed, id, v), Node: id})
	}
	sort.Slice(r.tokens, func(i, j int) bool {
		if r.tokens[i].Pos != r.tokens[j].Pos {
			return r.tokens[i].Pos < r.tokens[j].Pos
		}
		return r.tokens[i].Node < r.tokens[j].Node
	})
	return nil
}

// RemoveNode leaves member id: its tokens vanish, their arcs absorbed
// by the clockwise successors. Every other member's tokens are
// untouched.
func (r *Ring) RemoveNode(id int) error {
	if !r.HasMember(id) {
		return fmt.Errorf("ring: member %d not on the ring", id)
	}
	i := sort.SearchInts(r.members, id)
	r.members = append(r.members[:i], r.members[i+1:]...)
	kept := r.tokens[:0]
	for _, t := range r.tokens {
		if t.Node != id {
			kept = append(kept, t)
		}
	}
	r.tokens = kept
	return nil
}

// successor returns the index of the first token with Pos >= pos,
// wrapping past the last token to the first.
func (r *Ring) successor(pos uint64) int {
	lo, hi := 0, len(r.tokens)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); r.tokens[mid].Pos >= pos {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(r.tokens) {
		return 0
	}
	return lo
}

// OwnersAt appends to dst the first rf distinct members walking
// clockwise from pos (fewer when the ring has fewer members) and
// returns the extended slice. dst is reusable scratch: pass dst[:0] to
// avoid allocation.
//
//rafiki:hot
func (r *Ring) OwnersAt(dst []int, pos uint64, rf int) []int {
	if len(r.tokens) == 0 || rf <= 0 {
		return dst
	}
	if rf > len(r.members) {
		rf = len(r.members)
	}
	start := r.successor(pos)
	base := len(dst)
	for i := 0; i < len(r.tokens) && len(dst)-base < rf; i++ {
		node := r.tokens[(start+i)%len(r.tokens)].Node
		seen := false
		for _, d := range dst[base:] {
			if d == node {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, node)
		}
	}
	return dst
}

// OwnersOf returns key's RF distinct owners, primary first.
func (r *Ring) OwnersOf(key uint64, rf int) []int {
	return r.OwnersAt(make([]int, 0, rf), KeyPos(key), rf)
}

// Boundaries appends every token position in ascending order to dst
// and returns the extended slice: the arc endpoints ownership is
// piecewise-constant between.
func (r *Ring) Boundaries(dst []uint64) []uint64 {
	for _, t := range r.tokens {
		dst = append(dst, t.Pos)
	}
	return dst
}

// Interval is one arc (Lo, Hi] of the hash circle, half-open at Lo.
// Hi < Lo wraps through zero; Lo == Hi denotes the full circle.
type Interval struct {
	Lo, Hi uint64
}

// Contains reports whether pos lies on the arc.
func (iv Interval) Contains(pos uint64) bool {
	switch {
	case iv.Lo == iv.Hi:
		return true
	case iv.Lo < iv.Hi:
		return pos > iv.Lo && pos <= iv.Hi
	default:
		return pos > iv.Lo || pos <= iv.Hi
	}
}

// Span returns the arc's length in token units (2^64 token units make
// the full circle, reported as 0 by uint64 wraparound).
func (iv Interval) Span() uint64 { return iv.Hi - iv.Lo }
