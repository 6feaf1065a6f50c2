package main

import (
	"fmt"
	"math/rand"
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

// bfs-local: Graph500-style BFS on the in-process real-time wire.
const (
	bfsScale      = 15
	bfsEdgeFactor = 16
	bfsNodes      = 2
	bfsCores      = 2
	bfsRoots      = 64
	// bfsWorlds measured worlds per pass; each repeats the ingest for
	// its bulkShare of the time, then searches.
	bfsWorlds = 3
)

// Record types of the BFS mailbox protocol: [type][a][b] as uvarints.
const (
	msgEdge  = 0 // store adjacency a -> b at owner(a)
	msgVisit = 1 // visit a at level b
)

// bfsInput is everything generated from the seed before timing: each
// rank's share of the RMAT edge list, the search roots, and the oracle
// (per-root levels and reached counts, per-vertex degree and neighbour
// sums) from a sequential BFS over the same edges.
type bfsInput struct {
	n       uint64
	edges   int
	shares  [][]graph.Edge
	roots   []uint64
	level   [][]int32 // [root][vertex], -1 unreached
	reached []uint64
	degree  []uint32
	nbrSum  []uint64
}

func prepareBFS(seed int64, corrupt bool) (execFn, error) {
	in, err := genBFS(seed, bfsNodes*bfsCores)
	if err != nil {
		return nil, err
	}
	if corrupt {
		in.level[0][in.roots[0]] = 1 // the root is at level 0
	}
	return in.run, nil
}

func genBFS(seed int64, ranks int) (*bfsInput, error) {
	n := uint64(1) << bfsScale
	per := int(n) * bfsEdgeFactor / ranks
	in := &bfsInput{n: n, edges: per * ranks, shares: make([][]graph.Edge, ranks)}
	for r := range in.shares {
		in.shares[r] = graph.Collect(graph.NewRMAT(graph.Graph500, bfsScale, seed*1000003+int64(r)), per)
	}

	// Sequential CSR over both directions of every edge.
	in.degree = make([]uint32, n)
	in.nbrSum = make([]uint64, n)
	for _, share := range in.shares {
		for _, e := range share {
			in.degree[e.U]++
			in.degree[e.V]++
			in.nbrSum[e.U] += e.V
			in.nbrSum[e.V] += e.U
		}
	}
	off := make([]uint32, n+1)
	for v := uint64(0); v < n; v++ {
		off[v+1] = off[v] + in.degree[v]
	}
	adj := make([]uint32, off[n])
	fill := append([]uint32(nil), off[:n]...)
	for _, share := range in.shares {
		for _, e := range share {
			adj[fill[e.U]] = uint32(e.V)
			fill[e.U]++
			adj[fill[e.V]] = uint32(e.U)
			fill[e.V]++
		}
	}
	nonIsolated := uint64(0)
	for _, d := range in.degree {
		if d > 0 {
			nonIsolated++
		}
	}

	// Roots: distinct non-isolated vertices in the giant component, so
	// every search traverses about the same part of the graph.
	rng := rand.New(rand.NewSource(seed))
	chosen := make(map[uint64]bool)
	queue := make([]uint32, 0, n)
	for tries := 0; len(in.roots) < bfsRoots; tries++ {
		if tries > 100*bfsRoots {
			return nil, fmt.Errorf("bfs: found only %d roots in the giant component", len(in.roots))
		}
		root := uint64(rng.Int63n(int64(n)))
		if in.degree[root] == 0 || chosen[root] {
			continue
		}
		level := make([]int32, n)
		for i := range level {
			level[i] = -1
		}
		level[root] = 0
		queue = append(queue[:0], uint32(root))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[off[u]:off[u+1]] {
				if level[v] < 0 {
					level[v] = level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if uint64(len(queue)) < nonIsolated/2 {
			continue
		}
		chosen[root] = true
		in.roots = append(in.roots, root)
		in.level = append(in.level, level)
		in.reached = append(in.reached, uint64(len(queue)))
	}
	return in, nil
}

// bfsWorld collects what the ranks of one world report.
type bfsWorld struct {
	in        *bfsInput
	setupOnly bool
	states    []*bfsRank
	setupDone []time.Time
	mail      []ygm.Stats
	waits     []int
	// Written by rank 0 only.
	ingests                  []float64 // seconds per ingest
	steps                    []float64
	attempted, failed        int64
	bulkMallocs, stepMallocs uint64
}

func (in *bfsInput) run(budget time.Duration, traced bool) (*pass, error) {
	p := &pass{}
	if traced {
		p.tr = newTraceAgg()
	}
	deadline := time.Now().Add(budget)
	for w := 0; w < setupWorlds+bfsWorlds; w++ {
		// The first worlds only set up, which samples set-up time more
		// often than the measured worlds alone would.
		setupOnly := w < setupWorlds
		share := time.Until(deadline) / time.Duration(setupWorlds+bfsWorlds-w)
		runtime.GC()
		if err := in.world(p, share, w, setupOnly); err != nil {
			fmt.Fprintln(os.Stderr, "ygmperf: bfs-local:", err)
			p.attempted++
			p.failed++
			break
		}
	}
	p.rssMiB = peakRSSMiB()
	return p, nil
}

// world runs one transport world: set-up, ingest, then searches until
// the budget is spent.
func (in *bfsInput) world(p *pass, budget time.Duration, index int, setupOnly bool) error {
	topo := machine.New(bfsNodes, bfsCores)
	size := topo.WorldSize()
	var wt *worldTrace
	if p.tr != nil && !setupOnly {
		wt = newWorldTrace(size, p.tr.cost)
	}
	ws := &bfsWorld{
		in:        in,
		setupOnly: setupOnly,
		states:    make([]*bfsRank, size),
		setupDone: make([]time.Time, size),
		mail:      make([]ygm.Stats, size),
		waits:     make([]int, size),
	}
	// Rank state is built before the world starts, so that set-up time
	// is the program's. Adjacency lists are sized up front so that ingest
	// allocations are the mailbox's, not this benchmark's.
	for r := range ws.states {
		local := graph.LocalCount(in.n, size, r)
		st := &bfsRank{
			world:  size,
			adj:    make([][]uint64, local),
			dist:   make([]int32, local),
			reader: codec.NewReader(nil),
		}
		for l := range st.adj {
			st.adj[l] = make([]uint64, 0, in.degree[graph.GlobalID(uint64(l), size, r)])
		}
		ws.states[r] = st
	}
	cfg := transport.NewConfig(topo,
		transport.WithSeed(int64(index)),
		transport.WithWire(wt.wrap(transport.LocalWire{})),
	)
	call := time.Now()
	if wt != nil {
		wt.call = call
	}
	rep, err := transport.Run(cfg, func(proc *transport.Proc) error {
		if wt != nil {
			wt.bodyStarted[proc.Rank()] = time.Now()
		}
		return ws.rank(proc, budget, wt.rank(proc.Rank()))
	})
	if err != nil {
		return err
	}
	p.setup = append(p.setup, slowestSetup(call, ws.setupDone))
	if setupOnly {
		return nil
	}

	for r := 0; r < size; r++ {
		p.waitEmpties += float64(ws.waits[r])
	}
	for _, secs := range ws.ingests {
		p.bulk = append(p.bulk, float64(in.edges)/secs)
	}
	p.bulkRecords += float64(2 * len(ws.ingests) * in.edges)
	p.bulkMallocs += ws.bulkMallocs
	p.stepMallocs += ws.stepMallocs
	p.stepOps += float64(len(ws.steps))
	for _, ms := range ws.steps {
		p.steps = append(p.steps, ms)
		p.stepItems += float64(in.edges)
		p.stepSecs += ms / 1e3
	}
	p.attempted += ws.attempted
	p.failed += ws.failed
	p.rep.addWorld([]*transport.Report{rep}, ws.mail)
	if p.tr != nil {
		p.tr.add(wt, []*transport.Report{rep})
	}
	return nil
}

// bfsRank is one rank's state.
type bfsRank struct {
	world  int
	adj    [][]uint64 // local vertex -> neighbours
	dist   []int32    // local vertex -> level, -1 unreached
	next   []uint64   // owned vertices discovered at this level
	spare  []uint64
	reader *codec.Reader
	t      *rankTrace
	out    outbox
}

func (st *bfsRank) handle(_ ygm.Sender, payload []byte) {
	st.t.begin(kHandler)
	r := st.reader
	r.Reset(payload)
	typ, _ := r.Uvarint()
	a, _ := r.Uvarint()
	b, err := r.Uvarint()
	r.Reset(nil)
	if err != nil {
		panic(fmt.Sprintf("ygmperf: corrupt bfs record: %v", err))
	}
	l := graph.LocalID(a, st.world)
	switch typ {
	case msgEdge:
		st.adj[l] = append(st.adj[l], b)
	case msgVisit:
		if st.dist[l] < 0 {
			st.dist[l] = int32(b)
			st.next = append(st.next, a)
		}
	}
	st.t.end()
}

func (ws *bfsWorld) rank(proc *transport.Proc, budget time.Duration, t *rankTrace) error {
	t.enter(proc)
	defer t.leave()
	in := ws.in
	me := proc.Rank()
	world := proc.WorldSize()
	st := ws.states[me]
	st.t = t
	t.begin(kNew)
	mb := ygm.New(proc, st.handle,
		ygm.WithExchange(ygm.LazyExchange),
		ygm.WithScheme(machine.NLNR))
	comm := collective.World(proc)
	t.end()
	st.out.init(mb, t, 3)
	t.begin(kBarrier)
	comm.Barrier()
	t.end()
	ws.setupDone[me] = time.Now()
	if ws.setupOnly {
		return nil
	}
	bulkStop, stopAt := deadlines(ws.setupDone[me], budget)
	var ms runtime.MemStats
	var sum [2]uint64

	// Ingest, repeated until rank 0's clock passes bulkStop: both
	// directions of every edge to their owners. Every repetition starts
	// right after a collective, and rank 0 times it up to the return of
	// its WaitEmpty (global quiescence).
	for rep := 0; rank0Before(comm, t, rep == 0, bulkStop); rep++ {
		for l := range st.adj {
			st.adj[l] = st.adj[l][:0]
		}
		t.begin(kPhase)
		if me == 0 {
			runtime.ReadMemStats(&ms)
			ws.bulkMallocs -= ms.Mallocs
		}
		start := time.Now()
		for _, e := range in.shares[me] {
			st.out.add(machine.Rank(graph.Owner(e.U, world)), msgEdge, e.U, e.V)
			st.out.add(machine.Rank(graph.Owner(e.V, world)), msgEdge, e.V, e.U)
		}
		st.out.flush()
		t.begin(kWaitEmpty)
		mb.WaitEmpty()
		t.end()
		ws.waits[me]++
		if me == 0 {
			ws.ingests = append(ws.ingests, time.Since(start).Seconds())
			runtime.ReadMemStats(&ms)
			ws.bulkMallocs += ms.Mallocs
		}
		bad := uint64(0)
		for l, nbrs := range st.adj {
			v := graph.GlobalID(uint64(l), world, int(me))
			s := uint64(0)
			for _, u := range nbrs {
				s += u
			}
			if uint32(len(nbrs)) != in.degree[v] || s != in.nbrSum[v] {
				bad++
			}
		}
		t.end()
		sum[0] = bad
		t.begin(kAllreduce)
		bad = comm.AllreduceU64(sum[:1], collective.SumU64)[0]
		t.end()
		if me == 0 {
			ws.attempted++
			if bad > 0 {
				ws.failed++
			}
		}
	}
	if me == 0 {
		runtime.ReadMemStats(&ms)
		ws.stepMallocs = ms.Mallocs
	}

	// Searches from the fixed roots, in order, until rank 0's clock says
	// the budget is spent (at least one per world).
	for search := 0; rank0Before(comm, t, search == 0, stopAt); search++ {
		ri := search % len(in.roots)
		root := in.roots[ri]
		for l := range st.dist {
			st.dist[l] = -1
		}
		st.next = st.next[:0]
		start := time.Now()
		t.begin(kPhase)
		if graph.Owner(root, world) == int(me) {
			st.dist[graph.LocalID(root, world)] = 0
			st.next = append(st.next, root)
		}
		for level := uint64(1); ; level++ {
			frontier := st.next
			st.next = st.spare[:0]
			for _, u := range frontier {
				for _, v := range st.adj[graph.LocalID(u, world)] {
					st.out.add(machine.Rank(graph.Owner(v, world)), msgVisit, v, level)
				}
			}
			st.out.flush()
			st.spare = frontier
			t.begin(kWaitEmpty)
			mb.WaitEmpty()
			t.end()
			ws.waits[me]++
			sum[0] = uint64(len(st.next))
			t.begin(kAllreduce)
			grew := comm.AllreduceU64(sum[:1], collective.SumU64)[0]
			t.end()
			if grew == 0 {
				break
			}
		}
		t.end()
		elapsed := time.Since(start)

		// Check every owned vertex's level and the reached count.
		t.begin(kPhase)
		want := in.level[ri]
		bad, seen := uint64(0), uint64(0)
		for l, d := range st.dist {
			if d != want[graph.GlobalID(uint64(l), world, int(me))] {
				bad++
			}
			if d >= 0 {
				seen++
			}
		}
		t.end()
		sum[0], sum[1] = bad, seen
		t.begin(kAllreduce)
		got := comm.AllreduceU64(sum[:], collective.SumU64)
		t.end()
		if me == 0 {
			ws.steps = append(ws.steps, float64(elapsed)/1e6)
			ws.attempted++
			if got[0] > 0 || got[1] != in.reached[ri] {
				ws.failed++
			}
		}
	}
	if me == 0 {
		runtime.ReadMemStats(&ms)
		ws.stepMallocs = ms.Mallocs - ws.stepMallocs
	}
	ws.mail[me] = mb.Stats()
	return nil
}
