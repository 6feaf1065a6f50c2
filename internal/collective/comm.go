// Package collective implements synchronous MPI-style collective
// operations on top of the transport layer: barrier, broadcast, reduce,
// allreduce, gather, scatter, all-to-all and friends. YGM's termination
// detection runs on these, and the CombBLAS-style baseline uses them for
// its bulk-synchronous phases — exhibiting exactly the slowest-rank
// coupling the paper's asynchronous mailbox avoids.
//
// Every operation is collective over a Comm: all member ranks must call
// the same operations in the same order. Tags are derived from a hash of
// the member list plus a per-communicator sequence number and the round
// index, so concurrent communicators and back-to-back operations do not
// cross-talk.
package collective

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"ygm/internal/machine"
	"ygm/internal/transport"
)

// Comm is a communicator: an ordered rank group with a private tag space.
// Construct one per rank with New (or World); all members must pass the
// member list in the same order.
//
// The world communicator is implicit: member i is rank i, so it keeps no
// member list (Ranks materialises one on first use) and maps ranks to
// indices without a search.
type Comm struct {
	p     *transport.Proc
	world bool
	ranks []machine.Rank // member list; lazily built for the world
	size  int
	me    int // index of p.Rank() among the members
	hash  uint64
	seq   uint64
}

// New builds a communicator over ranks for the calling rank p. The list
// must contain p's rank exactly once; duplicates or absent callers are
// programming errors and return an error.
func New(p *transport.Proc, ranks []machine.Rank) (*Comm, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("collective: empty communicator")
	}
	me := -1
	seen := make(map[machine.Rank]bool, len(ranks))
	for i, r := range ranks {
		if !p.Topo().Valid(r) {
			return nil, fmt.Errorf("collective: invalid rank %d in communicator", r)
		}
		if seen[r] {
			return nil, fmt.Errorf("collective: duplicate rank %d in communicator", r)
		}
		seen[r] = true
		if r == p.Rank() {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("collective: rank %d not a member of communicator", p.Rank())
	}
	members := make([]machine.Rank, len(ranks))
	copy(members, ranks)
	return &Comm{p: p, ranks: members, size: len(members), me: me, hash: commHash(p, members)}, nil
}

// World returns the communicator spanning every rank, in rank order.
// Its tag hash folds in the world size in place of the member list.
func World(p *transport.Proc) *Comm {
	size := p.WorldSize()
	return &Comm{p: p, world: true, size: size, me: int(p.Rank()),
		hash: commHash(p, []machine.Rank{machine.Rank(size)})}
}

// commHash hashes the per-rank construction nonce and the member words
// into a communicator's tag hash. The nonce matters: two communicators
// over the same member list (e.g. NLNR's first and third exchange
// stages, or a stage communicator that coincides with the world) would
// otherwise share a tag space while advancing independent sequence
// counters, and their traffic would cross-talk. Construction is
// collective, so all members draw the same nonce.
func commHash(p *transport.Proc, words []machine.Rank) uint64 {
	b := make([]byte, 0, 8+4*len(words))
	b = binary.LittleEndian.AppendUint64(b, p.CommNonce())
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, uint32(w))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Size returns the number of member ranks.
func (c *Comm) Size() int { return c.size }

// Index returns the calling rank's position within the communicator.
func (c *Comm) Index() int { return c.me }

// Ranks returns the member list (callers must not mutate it).
func (c *Comm) Ranks() []machine.Rank {
	if c.ranks == nil {
		c.ranks = make([]machine.Rank, c.size)
		for i := range c.ranks {
			c.ranks[i] = machine.Rank(i)
		}
	}
	return c.ranks
}

// rank returns the member at index idx.
func (c *Comm) rank(idx int) machine.Rank {
	if c.world {
		return machine.Rank(idx)
	}
	return c.ranks[idx]
}

// nextOp advances the per-communicator sequence number and returns it.
// All members advance in lockstep because operations are collective.
func (c *Comm) nextOp() uint64 {
	c.seq++
	return c.seq
}

// Collective tag layout. Every field must be disjoint from the others
// and from the two marker bits the transport layer interprets:
// TagCollective (bit 32) must be set on every tag in this space, and
// bit 63 must stay clear — TagRound = 1<<63 and stats.isDataTag
// classifies any tag >= TagRound as round-exchange data traffic.
//
//	bits  0..7   round index within one operation
//	bits  8..31  operation sequence, low 24 bits
//	bit   32     TagCollective marker
//	bits 33..40  operation sequence, high 8 bits
//	bit   41     free (always clear)
//	bits 42..62  member-list hash (21 bits)
//	bit   63     clear (TagRound space)
//
// The sequence number is split around the marker bit so its full 32-bit
// width survives: the previous layout shifted op by 8 across bits
// 8..39, which overlapped bit 32 — op=X and op=X+2^24 produced
// identical tags, silently aliasing long-lived communicators after 2^24
// operations.
const (
	tagHashBits  = 21
	tagHashShift = 42
	tagOpHiShift = 33
)

// foldOp spreads a 32-bit sequence number into the two op fields on
// either side of the TagCollective marker bit.
func foldOp(op uint64) transport.Tag {
	return transport.Tag((op&0xffffff)<<8) |
		transport.Tag(((op>>24)&0xff)<<tagOpHiShift)
}

// tag derives the transport tag for round `round` of operation `op`.
func (c *Comm) tag(op uint64, round int) transport.Tag {
	return transport.TagCollective |
		transport.Tag((c.hash&((1<<tagHashBits)-1))<<tagHashShift) |
		foldOp(op) |
		transport.Tag(round&0xff)
}

// send transmits payload to the member at index idx.
func (c *Comm) send(idx int, t transport.Tag, payload []byte) {
	c.p.Send(c.rank(idx), t, payload)
}

// recv blocks for one packet of tag t and returns it.
func (c *Comm) recv(t transport.Tag) *transport.Packet {
	return c.p.Recv(t)
}

// indexOf maps a member rank back to its communicator index.
func (c *Comm) indexOf(r machine.Rank) int {
	if c.world {
		if r >= 0 && int(r) < c.size {
			return int(r)
		}
		return -1
	}
	for i, m := range c.ranks {
		if m == r {
			return i
		}
	}
	return -1
}
