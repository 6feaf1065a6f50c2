package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/graph"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// degree-sim: Algorithm 1 degree counting on the virtual-time simulator,
// in the Fig. 6a shape (uniform edges, fixed edges per rank, a few
// quiescence batches) with the paper-figure mailbox settings.
const (
	degNodes           = 128
	degCores           = 16
	degVerticesPerRank = 1 << 10
	degEdgesPerRank    = 1 << 11
	degBatches         = 2
	degCapacity        = 1 << 10
)

// degreeInput is generated from the seed before timing: every rank's
// uniform edges, and the oracle's per-rank degree digests from
// graph.Degrees.
type degreeInput struct {
	n      uint64
	ranks  int
	edges  []graph.Edge // rank r's share is edges[r*degEdgesPerRank:][:degEdgesPerRank]
	digest []uint64
}

func prepareDegree(seed int64, corrupt bool) (execFn, error) {
	ranks := degNodes * degCores
	in := &degreeInput{n: degVerticesPerRank * uint64(ranks), ranks: ranks}
	in.edges = make([]graph.Edge, 0, ranks*degEdgesPerRank)
	for r := 0; r < ranks; r++ {
		gen := graph.NewUniform(in.n, seed*1000003+int64(r))
		for i := 0; i < degEdgesPerRank; i++ {
			in.edges = append(in.edges, gen.Next())
		}
	}
	deg := graph.Degrees(in.edges, in.n)
	in.digest = make([]uint64, ranks)
	for v, d := range deg {
		in.digest[graph.Owner(uint64(v), ranks)] += degreeWeight(uint64(v)) * d
	}
	if corrupt {
		in.digest[0]++
	}
	return in.run, nil
}

// degreeWeight is the per-vertex weight of the degree digest.
func degreeWeight(v uint64) uint64 {
	v ^= v >> 31
	v *= 0x9e3779b97f4a7c15
	return v ^ v>>29 | 1
}

// degreeWorld collects what the ranks of one world report; each rank
// writes only its own entries.
type degreeWorld struct {
	in                   *degreeInput
	setupDone            []time.Time
	countStart, countEnd []time.Time
	mail                 []ygm.Stats
	bad                  []bool
	waits                []int
	degrees              []uint64 // rank r counts into its own block
	bulkMallocs          uint64   // rank 0
}

func (in *degreeInput) run(budget time.Duration, traced bool) (*pass, error) {
	p := &pass{}
	if traced {
		p.tr = newTraceAgg()
	}
	deadline := time.Now().Add(budget)
	// Start another world only while one more fits in the budget.
	var last time.Duration
	for w := 0; w == 0 || time.Until(deadline) > last; w++ {
		start := time.Now()
		runtime.GC()
		if err := in.world(p, w); err != nil {
			fmt.Fprintln(os.Stderr, "ygmperf: degree-sim:", err)
			p.attempted++
			p.failed++
			break
		}
		last = time.Since(start)
	}
	p.rssMiB = peakRSSMiB()
	return p, nil
}

func (in *degreeInput) world(p *pass, index int) error {
	topo := machine.New(degNodes, degCores)
	size := topo.WorldSize()
	var wt *worldTrace
	if p.tr != nil {
		wt = newWorldTrace(size, p.tr.cost)
	}
	dw := &degreeWorld{
		in:         in,
		setupDone:  make([]time.Time, size),
		countStart: make([]time.Time, size),
		countEnd:   make([]time.Time, size),
		mail:       make([]ygm.Stats, size),
		bad:        make([]bool, size),
		waits:      make([]int, size),
		// Every rank owns degVerticesPerRank vertices (n is a multiple
		// of the world size); the counts are allocated before the world
		// starts so that set-up time is the program's.
		degrees: make([]uint64, in.n),
	}
	cfg := transport.NewConfig(topo,
		transport.WithSeed(int64(index)),
		transport.WithWire(wt.wrap(transport.SimWire{})),
	)
	call := time.Now()
	if wt != nil {
		wt.call = call
	}
	rep, err := transport.Run(cfg, func(proc *transport.Proc) error {
		if wt != nil {
			wt.bodyStarted[proc.Rank()] = time.Now()
		}
		return dw.rank(proc, wt.rank(proc.Rank()))
	})
	if err != nil {
		return err
	}

	first, last := dw.countStart[0], dw.countEnd[0]
	for r := 0; r < size; r++ {
		if dw.countStart[r].Before(first) {
			first = dw.countStart[r]
		}
		if dw.countEnd[r].After(last) {
			last = dw.countEnd[r]
		}
		p.waitEmpties += float64(dw.waits[r])
		p.attempted++
		if dw.bad[r] {
			p.failed++
		}
	}
	records := float64(2 * size * degEdgesPerRank)
	makespan := rep.Makespan()
	p.setup = append(p.setup, slowestSetup(call, dw.setupDone))
	p.bulk = append(p.bulk, records/last.Sub(first).Seconds())
	p.bulkRecords += records
	p.bulkMallocs += dw.bulkMallocs
	// A step is one simulated world: its latency is the simulated
	// makespan the paper's figures plot.
	p.steps = append(p.steps, makespan*1e3)
	p.stepItems += records
	p.stepSecs += makespan
	p.rep.addWorld([]*transport.Report{rep}, dw.mail)
	if p.tr != nil {
		p.tr.add(wt, []*transport.Report{rep})
	}
	return nil
}

func (dw *degreeWorld) rank(proc *transport.Proc, t *rankTrace) error {
	t.enter(proc)
	defer t.leave()
	in := dw.in
	me := proc.Rank()
	world := proc.WorldSize()
	degrees := dw.degrees[int(me)*degVerticesPerRank:][:degVerticesPerRank]
	reader := codec.NewReader(nil)
	handler := func(_ ygm.Sender, payload []byte) {
		t.begin(kHandler)
		reader.Reset(payload)
		v, err := reader.Uvarint()
		reader.Reset(nil)
		if err != nil {
			panic(fmt.Sprintf("ygmperf: corrupt degree record: %v", err))
		}
		degrees[graph.LocalID(v, world)]++
		t.end()
	}

	t.begin(kNew)
	mb := ygm.New(proc, handler,
		ygm.WithScheme(machine.NLNR),
		ygm.WithCapacity(degCapacity))
	comm := collective.World(proc)
	t.end()
	var out outbox
	out.init(mb, t, 1)
	t.begin(kBarrier)
	comm.Barrier()
	t.end()
	dw.setupDone[me] = time.Now()
	var ms runtime.MemStats

	t.begin(kPhase)
	if me == 0 {
		runtime.ReadMemStats(&ms)
		dw.bulkMallocs = ms.Mallocs
	}
	dw.countStart[me] = time.Now()
	share := in.edges[int(me)*degEdgesPerRank:][:degEdgesPerRank]
	batch := degEdgesPerRank / degBatches
	for i, e := range share {
		out.add(machine.Rank(graph.Owner(e.U, world)), e.U, 0, 0)
		out.add(machine.Rank(graph.Owner(e.V, world)), e.V, 0, 0)
		if (i+1)%batch == 0 {
			out.flush()
			t.begin(kWaitEmpty)
			mb.WaitEmpty()
			t.end()
			dw.waits[me]++
		}
	}
	dw.countEnd[me] = time.Now()
	if me == 0 {
		runtime.ReadMemStats(&ms)
		dw.bulkMallocs = ms.Mallocs - dw.bulkMallocs
	}
	digest := uint64(0)
	for l, d := range degrees {
		digest += degreeWeight(graph.GlobalID(uint64(l), world, int(me))) * d
	}
	dw.bad[me] = digest != in.digest[me]
	t.end()
	dw.mail[me] = mb.Stats()
	return nil
}
