package collective

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ygm/internal/machine"
	"ygm/internal/netsim"
	"ygm/internal/transport"
)

// runWorld executes body on every rank of a nodes x cores cluster.
func runWorld(t *testing.T, nodes, cores int, body func(p *transport.Proc, c *Comm) error) *transport.Report {
	t.Helper()
	rep, err := transport.Run(transport.Config{
		Topo:  machine.New(nodes, cores),
		Model: netsim.Quartz(),
		Seed:  1,
	}, func(p *transport.Proc) error {
		return body(p, World(p))
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNewValidation(t *testing.T) {
	_, err := transport.Run(transport.Config{Topo: machine.New(1, 2)}, func(p *transport.Proc) error {
		if _, err := New(p, nil); err == nil {
			return fmt.Errorf("empty communicator accepted")
		}
		if _, err := New(p, []machine.Rank{0, 0, 1}); err == nil {
			return fmt.Errorf("duplicate member accepted")
		}
		if _, err := New(p, []machine.Rank{99}); err == nil {
			return fmt.Errorf("invalid rank accepted")
		}
		other := machine.Rank(1 - int(p.Rank()))
		if _, err := New(p, []machine.Rank{other}); err == nil {
			return fmt.Errorf("communicator excluding caller accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldIsImplicit pins the world communicator's identity mapping:
// member i is rank i, no member list exists until Ranks asks for one,
// and ranks outside the world map to no index.
func TestWorldIsImplicit(t *testing.T) {
	runWorld(t, 2, 3, func(p *transport.Proc, c *Comm) error {
		if c.ranks != nil {
			return fmt.Errorf("world communicator built a member list eagerly")
		}
		if c.Size() != p.WorldSize() || c.Index() != int(p.Rank()) {
			return fmt.Errorf("world size/index = %d/%d, want %d/%d", c.Size(), c.Index(), p.WorldSize(), p.Rank())
		}
		for i := 0; i < c.Size(); i++ {
			if r := c.rank(i); r != machine.Rank(i) {
				return fmt.Errorf("world member %d is rank %d", i, r)
			}
			if idx := c.indexOf(machine.Rank(i)); idx != i {
				return fmt.Errorf("world rank %d maps to index %d", i, idx)
			}
		}
		if idx := c.indexOf(machine.Rank(c.Size())); idx != -1 {
			return fmt.Errorf("rank outside the world maps to index %d", idx)
		}
		ranks := c.Ranks()
		if len(ranks) != c.Size() {
			return fmt.Errorf("world Ranks() has %d entries, want %d", len(ranks), c.Size())
		}
		for i, r := range ranks {
			if r != machine.Rank(i) {
				return fmt.Errorf("world Ranks()[%d] = %d", i, r)
			}
		}
		return nil
	})
}

func TestBarrierCouplesToSlowest(t *testing.T) {
	const slowTime = 5e-3
	var mu sync.Mutex
	exits := map[machine.Rank]float64{}
	runWorld(t, 3, 2, func(p *transport.Proc, c *Comm) error {
		if p.Rank() == 4 {
			p.Compute(slowTime)
		}
		c.Barrier()
		mu.Lock()
		exits[p.Rank()] = p.Now()
		mu.Unlock()
		return nil
	})
	for r, at := range exits {
		if at < slowTime {
			t.Fatalf("rank %d left the barrier at %g, before the straggler's %g", r, at, slowTime)
		}
	}
}

func TestBarrierRepeats(t *testing.T) {
	runWorld(t, 2, 2, func(p *transport.Proc, c *Comm) error {
		for i := 0; i < 5; i++ {
			c.Barrier()
		}
		return nil
	})
}

func TestBcastAllSizes(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 5} {
		cores := cores
		t.Run(fmt.Sprintf("ranks=%d", 2*cores), func(t *testing.T) {
			want := []byte("broadcast payload")
			runWorld(t, 2, cores, func(p *transport.Proc, c *Comm) error {
				for root := 0; root < c.Size(); root++ {
					var in []byte
					if c.Index() == root {
						in = want
					}
					got := c.Bcast(root, in)
					if !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d root %d: got %q", p.Rank(), root, got)
					}
				}
				return nil
			})
		})
	}
}

func TestReduceSum(t *testing.T) {
	runWorld(t, 2, 3, func(p *transport.Proc, c *Comm) error {
		vals := []uint64{uint64(c.Index()), 1, uint64(c.Index() * c.Index())}
		got := c.ReduceU64(2, vals, SumU64)
		if c.Index() != 2 {
			if got != nil {
				return fmt.Errorf("non-root got %v", got)
			}
			return nil
		}
		// sum of 0..5, count, sum of squares 0..25
		want := []uint64{15, 6, 55}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("reduce = %v, want %v", got, want)
			}
		}
		return nil
	})
}

func TestAllreduceSumMaxMin(t *testing.T) {
	runWorld(t, 3, 2, func(p *transport.Proc, c *Comm) error {
		me := uint64(c.Index())
		if got := c.AllreduceU64([]uint64{me}, SumU64)[0]; got != 15 {
			return fmt.Errorf("sum = %d", got)
		}
		if got := c.AllreduceU64([]uint64{me}, MaxU64)[0]; got != 5 {
			return fmt.Errorf("max = %d", got)
		}
		if got := c.AllreduceU64([]uint64{me + 3}, MinU64)[0]; got != 3 {
			return fmt.Errorf("min = %d", got)
		}
		return nil
	})
}

func TestAllreduceF64(t *testing.T) {
	runWorld(t, 2, 2, func(p *transport.Proc, c *Comm) error {
		v := float64(c.Index()) + 0.5
		got := c.AllreduceF64([]float64{v, -v}, SumF64)
		if got[0] != 8 || got[1] != -8 {
			return fmt.Errorf("allreduce f64 = %v", got)
		}
		if mx := c.AllreduceF64([]float64{v}, MaxF64)[0]; mx != 3.5 {
			return fmt.Errorf("max f64 = %v", mx)
		}
		return nil
	})
}

func TestGathervAndAllgatherv(t *testing.T) {
	runWorld(t, 2, 3, func(p *transport.Proc, c *Comm) error {
		mine := []byte(fmt.Sprintf("rank-%d", c.Index()))
		got := c.Gatherv(1, mine)
		if c.Index() == 1 {
			if len(got) != c.Size() {
				return fmt.Errorf("gather len = %d", len(got))
			}
			for i, b := range got {
				if string(b) != fmt.Sprintf("rank-%d", i) {
					return fmt.Errorf("gather[%d] = %q", i, b)
				}
			}
		} else if got != nil {
			return fmt.Errorf("non-root gather = %v", got)
		}
		all := c.Allgatherv(mine)
		for i, b := range all {
			if string(b) != fmt.Sprintf("rank-%d", i) {
				return fmt.Errorf("allgather[%d] = %q", i, b)
			}
		}
		return nil
	})
}

func TestScatterv(t *testing.T) {
	runWorld(t, 2, 2, func(p *transport.Proc, c *Comm) error {
		var in [][]byte
		if c.Index() == 0 {
			in = make([][]byte, c.Size())
			for i := range in {
				in[i] = []byte{byte(i * 10)}
			}
		}
		got := c.Scatterv(0, in)
		if len(got) != 1 || got[0] != byte(c.Index()*10) {
			return fmt.Errorf("scatter piece = %v", got)
		}
		return nil
	})
}

func TestAlltoallv(t *testing.T) {
	runWorld(t, 2, 3, func(p *transport.Proc, c *Comm) error {
		out := make([][]byte, c.Size())
		for j := range out {
			out[j] = []byte(fmt.Sprintf("%d->%d", c.Index(), j))
		}
		in := c.Alltoallv(out)
		for i, b := range in {
			if want := fmt.Sprintf("%d->%d", i, c.Index()); string(b) != want {
				return fmt.Errorf("alltoallv[%d] = %q, want %q", i, b, want)
			}
		}
		return nil
	})
}

func TestExscan(t *testing.T) {
	runWorld(t, 2, 3, func(p *transport.Proc, c *Comm) error {
		got := c.ExscanU64(uint64(c.Index()+1), 0, SumU64)
		// exclusive prefix sum of 1,2,3,4,5,6
		want := uint64(c.Index() * (c.Index() + 1) / 2)
		if got != want {
			return fmt.Errorf("exscan = %d, want %d", got, want)
		}
		return nil
	})
}

// TestSubCommunicators runs disjoint communicators concurrently — one per
// node — exercising tag isolation between groups.
func TestSubCommunicators(t *testing.T) {
	runWorld(t, 3, 4, func(p *transport.Proc, world *Comm) error {
		local, err := New(p, p.Topo().LocalRanks(p.Rank()))
		if err != nil {
			return err
		}
		sum := local.AllreduceU64([]uint64{uint64(p.Rank())}, SumU64)[0]
		base := uint64(p.Node() * 4)
		if want := base + (base + 1) + (base + 2) + (base + 3); sum != want {
			return fmt.Errorf("node %d local sum = %d, want %d", p.Node(), sum, want)
		}
		// And the world still works afterwards.
		total := world.AllreduceU64([]uint64{1}, SumU64)[0]
		if total != 12 {
			return fmt.Errorf("world count = %d", total)
		}
		return nil
	})
}

// TestOverlappingCommunicators: row/column style groups (as the 2D SpMV
// baseline uses) must not cross-talk.
func TestOverlappingCommunicators(t *testing.T) {
	// 4 ranks as a 2x2 grid: rows {0,1},{2,3}; cols {0,2},{1,3}.
	runWorld(t, 2, 2, func(p *transport.Proc, world *Comm) error {
		me := int(p.Rank())
		row := []machine.Rank{machine.Rank(me / 2 * 2), machine.Rank(me/2*2 + 1)}
		col := []machine.Rank{machine.Rank(me % 2), machine.Rank(me%2 + 2)}
		rc, err := New(p, row)
		if err != nil {
			return err
		}
		cc, err := New(p, col)
		if err != nil {
			return err
		}
		rs := rc.AllreduceU64([]uint64{uint64(me)}, SumU64)[0]
		cs := cc.AllreduceU64([]uint64{uint64(me)}, SumU64)[0]
		wantRow := uint64(me/2*4 + 1) // 0+1 or 2+3
		wantCol := uint64(me%2*2 + 2) // 0+2 or 1+3
		if rs != wantRow || cs != wantCol {
			return fmt.Errorf("rank %d: row %d (want %d) col %d (want %d)", me, rs, wantRow, cs, wantCol)
		}
		return nil
	})
}

// TestSyncCollectiveIdleTime quantifies the paper's core claim setup: with
// an imbalanced workload, a bulk-synchronous exchange leaves fast ranks
// idle. Utilization must drop well below 1.
func TestSyncCollectiveIdleTime(t *testing.T) {
	cfg := transport.Config{
		Topo:  machine.New(2, 2),
		Model: netsim.Quartz(),
		ComputeScale: func(r machine.Rank) float64 {
			if r == 0 {
				return 20 // rank 0 is a straggler
			}
			return 1
		},
	}
	rep, err := transport.Run(cfg, func(p *transport.Proc) error {
		c := World(p)
		for iter := 0; iter < 4; iter++ {
			p.Compute(1e-3)
			payloads := make([][]byte, c.Size())
			for j := range payloads {
				payloads[j] = make([]byte, 256)
			}
			c.Alltoallv(payloads)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if u := rep.Utilization(); u > 0.5 {
		t.Fatalf("synchronous exchange with a 20x straggler should idle the others; utilization = %g", u)
	}
}

func TestBcastLargeAndEmpty(t *testing.T) {
	runWorld(t, 2, 2, func(p *transport.Proc, c *Comm) error {
		big := c.Bcast(0, func() []byte {
			if c.Index() == 0 {
				b := make([]byte, 1<<20)
				b[12345] = 7
				return b
			}
			return nil
		}())
		if len(big) != 1<<20 || big[12345] != 7 {
			return fmt.Errorf("big bcast corrupted")
		}
		if got := c.Bcast(1, nil); len(got) != 0 {
			return fmt.Errorf("empty bcast = %v", got)
		}
		return nil
	})
}
