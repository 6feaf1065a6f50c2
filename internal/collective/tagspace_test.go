package collective

import (
	"fmt"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// White-box pins on the communicator tag layout. The fields the
// transport layer interprets are load-bearing: TagCollective (bit 32)
// must be set on every tag so collective traffic is classified
// correctly, and bit 63 must stay clear because TagRound = 1<<63 and
// stats.isDataTag treats any tag >= TagRound as round-exchange data.

// TestTagOpFieldFullWidth pins the regression the split op-field layout
// fixes: the old fold shifted the 32-bit sequence across bits 8..39,
// overlapping the TagCollective marker at bit 32, so op=X and
// op=X+2^24 aliased to the same tag. Every byte boundary of the op
// width must now produce a distinct tag.
func TestTagOpFieldFullWidth(t *testing.T) {
	c := &Comm{hash: 0xdeadbeefcafe}
	ops := []uint64{0, 1, 1 << 8, 1 << 16, 1 << 24, 1<<24 + 1, 1 << 31, 0xffffffff}
	seen := map[transport.Tag]uint64{}
	for _, op := range ops {
		tag := c.tag(op, 0)
		if prev, dup := seen[tag]; dup {
			t.Fatalf("op %#x and op %#x alias to tag %#x", prev, op, tag)
		}
		seen[tag] = op
	}
	if a, b := c.tag(1, 0), c.tag(1+(1<<24), 0); a == b {
		t.Fatalf("2^24 aliasing regression: tag(1,0) == tag(1+2^24,0) == %#x", a)
	}
}

// TestTagMarkerBits pins the transport-facing invariants across the
// whole reachable tag space: bit 32 set, bit 63 clear, bit 41 (the
// free bit of the layout) clear, and rounds of the same op distinct.
func TestTagMarkerBits(t *testing.T) {
	c := &Comm{hash: ^uint64(0)} // worst case: every hash bit set
	for _, op := range []uint64{0, 1, 0xffffff, 1 << 24, 0xffffffff} {
		for _, round := range []int{0, 1, 0xff} {
			tag := c.tag(op, round)
			if tag&transport.TagCollective == 0 {
				t.Fatalf("tag(%#x,%d) = %#x lost the TagCollective marker", op, round, tag)
			}
			if tag >= transport.TagRound {
				t.Fatalf("tag(%#x,%d) = %#x strays into the TagRound space", op, round, tag)
			}
			if tag&(1<<41) != 0 {
				t.Fatalf("tag(%#x,%d) = %#x sets the free bit 41", op, round, tag)
			}
		}
		if c.tag(op, 0) == c.tag(op, 1) {
			t.Fatalf("rounds 0 and 1 of op %#x alias", op)
		}
	}
}

// TestIdenticalMembershipCommsDisjoint pins the CommNonce bug class: two
// communicators over the same members — two worlds, or a world and an
// explicit communicator listing every rank — must disagree on every op
// tag, because the construction nonce feeds the hash field.
func TestIdenticalMembershipCommsDisjoint(t *testing.T) {
	_, err := transport.Run(transport.Config{
		Topo:  machine.New(1, 2),
		Model: netsim.Quartz(),
		Seed:  3,
	}, func(p *transport.Proc) error {
		c1 := World(p)
		c2 := World(p)
		c3, err := New(p, c1.Ranks())
		if err != nil {
			return err
		}
		comms := []*Comm{c1, c2, c3}
		for i, a := range comms {
			for _, b := range comms[i+1:] {
				if a.hash == b.hash {
					return fmt.Errorf("identical-membership communicators share hash %#x", a.hash)
				}
				for _, op := range []uint64{1, 2, 1 << 24} {
					if a.tag(op, 0) == b.tag(op, 0) {
						return fmt.Errorf("identical-membership communicators share op tag for op %d", op)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
