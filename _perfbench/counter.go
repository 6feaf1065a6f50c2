package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/container"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// counter-tcp: container.Counter over TCPWire, both ranks in this
// process over one loopback connection.
const (
	counterRanks   = 2
	counterVocab   = 1 << 16
	counterWords   = 1 << 19 // per rank per write phase
	counterZipfS   = 1.1
	counterK       = 4096    // lookups per rank per round; see README.md
	counterLookups = 1 << 16 // per rank, cycled through
	counterWorlds  = 5
	// clientHeadStart is how long rank 1's Run call precedes rank 0's,
	// so that rank 1's first dial always finds no rendezvous listener
	// and set-up always includes the client's 10 ms dial retry. Started
	// together, either rank could win that race, which made set-up
	// bimodal (about 1 or 11 ms) with a median that jumped between runs.
	// With the root started first, set-up was about 1 ms of socket work
	// and goroutine wake-ups, whose median CPU steal moved by a quarter
	// between two sets of runs. Set-up is timed from rank 1's Run call.
	clientHeadStart = 2 * time.Millisecond
)

// counterInput is generated from the seed before timing: the
// vocabulary, each rank's skewed word stream and lookup keys, and the
// oracle (a sequential tally and the table digest it implies).
type counterInput struct {
	vocab   [][]byte
	stream  [counterRanks][]int32
	lookups [counterRanks][]int32
	tally   []uint64
	digest  uint64
	size    uint64
	// nextPort is where rendezvousAddr probes next, as an offset from
	// rendezvousPortLo; worlds run one at a time.
	nextPort int
}

func prepareCounter(seed int64, corrupt bool) (execFn, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &counterInput{vocab: make([][]byte, counterVocab), tally: make([]uint64, counterVocab)}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range in.vocab {
		w := make([]byte, 3+rng.Intn(10), 16)
		for j := range w {
			w[j] = letters[rng.Intn(len(letters))]
		}
		in.vocab[i] = fmt.Appendf(w, "%d", i) // the suffix makes words distinct
	}
	// Zipf ranks map through a permutation, so hot words are spread
	// over the vocabulary rather than being its first entries.
	perm := rng.Perm(counterVocab)
	zipf := rand.NewZipf(rng, counterZipfS, 1, counterVocab-1)
	for r := 0; r < counterRanks; r++ {
		in.stream[r] = make([]int32, counterWords)
		for i := range in.stream[r] {
			w := perm[zipf.Uint64()]
			in.stream[r][i] = int32(w)
			in.tally[w]++
		}
		in.lookups[r] = make([]int32, counterLookups)
		for i := range in.lookups[r] {
			in.lookups[r][i] = int32(rng.Intn(counterVocab))
		}
	}
	for w, c := range in.tally {
		if c > 0 {
			in.digest += keyHash(in.vocab[w]) * c
			in.size++
		}
	}
	if corrupt {
		in.tally[in.lookups[0][0]]++
	}
	return in.run, nil
}

// keyHash is the per-key weight of the table digest.
func keyHash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// counterWorld collects what the two ranks of one world report.
type counterWorld struct {
	in                *counterInput
	setupOnly         bool
	setupDone         [counterRanks]time.Time
	mail              [counterRanks]ygm.Stats
	barriers          [counterRanks]int
	fetches           [counterRanks]int64
	attempted, failed [counterRanks]int64
	// Written by rank 0 only.
	writes                   []float64 // seconds per write phase
	steps                    []float64
	bulkMallocs, stepMallocs uint64
}

func (in *counterInput) run(budget time.Duration, traced bool) (*pass, error) {
	p := &pass{}
	if traced {
		p.tr = newTraceAgg()
	}
	deadline := time.Now().Add(budget)
	for w := 0; w < setupWorlds+counterWorlds; w++ {
		// The first worlds only set up, which samples set-up time more
		// often than the measured worlds alone would.
		setupOnly := w < setupWorlds
		share := time.Until(deadline) / time.Duration(setupWorlds+counterWorlds-w)
		runtime.GC()
		if err := in.world(p, share, w, setupOnly); err != nil {
			fmt.Fprintln(os.Stderr, "ygmperf: counter-tcp:", err)
			p.attempted++
			p.failed++
			break
		}
	}
	p.rssMiB = peakRSSMiB()
	return p, nil
}

// Rendezvous ports are taken from below Linux's default ephemeral range
// (32768-60999). A port the kernel hands out for 127.0.0.1:0 and that
// is then closed can be handed out again to a rank's own mesh listener
// before rank 0 binds it as the rendezvous (about one bind in 10000 on
// the host the benchmark was built on), and rank 0 then retries the
// listen until the handshake deadline and the world fails. No bind to
// port 0 and no dial is given a port outside the ephemeral range.
const (
	rendezvousPortLo = 20000
	rendezvousPortHi = 32000
)

// rendezvousAddr returns a loopback address for one world's rendezvous
// whose port was free a moment ago, probing upward from the port after
// the last one used.
func (in *counterInput) rendezvousAddr() (string, error) {
	for tries := 0; tries < rendezvousPortHi-rendezvousPortLo; tries++ {
		port := rendezvousPortLo + in.nextPort%(rendezvousPortHi-rendezvousPortLo)
		in.nextPort++
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue
		}
		return ln.Addr().String(), ln.Close()
	}
	return "", fmt.Errorf("no free loopback port in %d-%d", rendezvousPortLo, rendezvousPortHi-1)
}

// world runs one two-rank TCP world: each rank is its own transport.Run
// with its own TCPWire, as two processes would run it.
func (in *counterInput) world(p *pass, budget time.Duration, index int, setupOnly bool) error {
	topo := machine.New(counterRanks, 1)
	addr, err := in.rendezvousAddr()
	if err != nil {
		return fmt.Errorf("reserving a rendezvous port: %w", err)
	}
	var wt *worldTrace
	if p.tr != nil && !setupOnly {
		wt = newWorldTrace(counterRanks, p.tr.cost)
	}
	cw := &counterWorld{in: in, setupOnly: setupOnly}
	reps := make([]*transport.Report, counterRanks)
	errs := make([]error, counterRanks)
	call := time.Now() // rank 1's Run call starts the set-up clock
	var wg sync.WaitGroup
	for r := counterRanks - 1; r >= 0; r-- {
		if r < counterRanks-1 {
			time.Sleep(clientHeadStart)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			wire := transport.NewTCPWire(transport.TCPOptions{Rank: r, Rendezvous: addr, Timeout: 30 * time.Second})
			cfg := transport.NewConfig(topo,
				transport.WithSeed(int64(index)),
				transport.WithWire(wt.wrap(wire)),
			)
			reps[r], errs[r] = transport.Run(cfg, func(proc *transport.Proc) error {
				if wt != nil {
					wt.bodyStarted[proc.Rank()] = time.Now()
				}
				return cw.rank(proc, budget, wt)
			})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if wt != nil {
		wt.call = call
	}
	p.setup = append(p.setup, slowestSetup(call, cw.setupDone[:]))
	if setupOnly {
		return nil
	}

	for r := 0; r < counterRanks; r++ {
		p.waitEmpties += float64(cw.barriers[r])
		p.attempted += cw.attempted[r]
		p.failed += cw.failed[r]
		p.stepOps += float64(cw.fetches[r])
	}
	words := float64(counterRanks * counterWords)
	for _, secs := range cw.writes {
		p.bulk = append(p.bulk, words/secs)
		p.bulkRecords += words
	}
	p.bulkMallocs += cw.bulkMallocs
	p.stepMallocs += cw.stepMallocs
	for _, ms := range cw.steps {
		p.steps = append(p.steps, ms)
		p.stepItems += counterRanks * counterK
		p.stepSecs += ms / 1e3
	}
	p.rep.addWorld(reps, cw.mail[:])
	if p.tr != nil {
		p.tr.add(wt, reps)
	}
	return nil
}

func (cw *counterWorld) rank(proc *transport.Proc, budget time.Duration, wt *worldTrace) error {
	me := proc.Rank()
	t := wt.rank(me)
	t.enter(proc)
	defer t.leave()
	in := cw.in
	reader := codec.NewReader(nil)

	t.begin(kEngineNew)
	eng := container.NewEngine(proc, ygm.WithExchange(ygm.LazyExchange))
	cnt := container.NewCounter(eng, wt.partitioner(me))
	// The fetcher echoes the caller's lookup index with the count.
	fid := cnt.RegisterFetcher(func(c *container.Counter, key, arg []byte, reply *codec.Writer) {
		t.begin(kHandler)
		reader.Reset(arg)
		idx, err := reader.Uvarint()
		reader.Reset(nil)
		if err != nil {
			panic(fmt.Sprintf("ygmperf: corrupt lookup argument: %v", err))
		}
		reply.Uvarint(idx)
		reply.Uvarint(c.LocalCount(key))
		t.end()
	})
	comm := collective.World(proc)
	t.end()
	t.begin(kBarrier)
	comm.Barrier()
	t.end()
	cw.setupDone[me] = time.Now()
	if cw.setupOnly {
		return nil
	}
	bulkStop, stopAt := deadlines(cw.setupDone[me], budget)
	var ms runtime.MemStats

	// Write phase, repeated until rank 0's clock passes bulkStop: the
	// rank's word stream, then one container barrier. Every repetition
	// starts right after a collective, and rank 0 times it up to the
	// return of its barrier. Counts accumulate, so after reps repetitions
	// every count is reps times the tally; the table is checked after
	// each.
	reps := uint64(0)
	for rank0Before(comm, t, reps == 0, bulkStop) {
		reps++
		t.begin(kPhase)
		if me == 0 {
			runtime.ReadMemStats(&ms)
			cw.bulkMallocs -= ms.Mallocs
		}
		start := time.Now()
		for _, w := range in.stream[me] {
			t.begin(kIncr)
			cnt.AsyncIncr(in.vocab[w])
			t.end()
		}
		t.begin(kEngBarrier)
		eng.Barrier()
		t.end()
		cw.barriers[me]++
		if me == 0 {
			cw.writes = append(cw.writes, time.Since(start).Seconds())
			runtime.ReadMemStats(&ms)
			cw.bulkMallocs += ms.Mallocs
		}
		t.end()

		var digest, size uint64
		t.begin(kForAll)
		cnt.ForAll(func(key string, count uint64) {
			digest += keyHash([]byte(key)) * count
			size++
		})
		t.end()
		sum := [2]uint64{digest, size}
		t.begin(kAllreduce)
		got := comm.AllreduceU64(sum[:], collective.SumU64)
		t.end()
		cw.attempted[me]++
		if got[0] != reps*in.digest || got[1] != in.size {
			cw.failed[me]++
		}
	}

	// Read phase: closed-loop rounds of counterK fetches per rank, each
	// round ending in a container barrier, until rank 0's clock says the
	// budget is spent (at least one round per world).
	keys := in.lookups[me]
	bad := int64(0)
	check := func(reply []byte) {
		t.begin(kHandler)
		reader.Reset(reply)
		idx, _ := reader.Uvarint()
		count, err := reader.Uvarint()
		reader.Reset(nil)
		if err != nil || idx >= uint64(len(keys)) || count != reps*in.tally[keys[idx]] {
			bad++
		}
		t.end()
	}
	arg := codec.NewWriter(10)
	if me == 0 {
		runtime.ReadMemStats(&ms)
		cw.stepMallocs = ms.Mallocs
	}
	next := 0
	for round := 0; rank0Before(comm, t, round == 0, stopAt); round++ {
		start := time.Now()
		t.begin(kPhase)
		for k := 0; k < counterK; k++ {
			arg.Reset()
			arg.Uvarint(uint64(next))
			t.begin(kFetch)
			cnt.AsyncVisitFetch(fid, in.vocab[keys[next]], arg.Bytes(), check)
			t.end()
			next = (next + 1) % len(keys)
		}
		t.begin(kEngBarrier)
		eng.Barrier()
		t.end()
		t.end()
		cw.barriers[me]++
		cw.fetches[me] += counterK
		if me == 0 {
			cw.steps = append(cw.steps, float64(time.Since(start))/1e6)
		}
	}
	if me == 0 {
		runtime.ReadMemStats(&ms)
		cw.stepMallocs = ms.Mallocs - cw.stepMallocs
	}
	cw.attempted[me] += cw.fetches[me]
	cw.failed[me] += bad
	cw.mail[me] = eng.Mailbox().Stats()
	return nil
}
