package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ygm/internal/container"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// spanKind names one boundary the traced run times. Every span is
// recorded by this benchmark's own code around a call into a layer (or
// around a callback the benchmark hands a layer: the wire decorator, the
// partitioner wrapper, the message handlers); nothing is timed inside the
// program.
type spanKind uint8

const (
	kNew        spanKind = iota // ygm.new: mailbox construction
	kSend                       // ygm.send: Box.Send
	kWaitEmpty                  // ygm.wait_empty: Box.WaitEmpty
	kAllreduce                  // collective.allreduce: Comm.AllreduceU64
	kBarrier                    // collective.barrier: Comm.Barrier
	kEngineNew                  // container.new: NewEngine + NewCounter
	kIncr                       // container.async_incr: Counter.AsyncIncr
	kFetch                      // container.async_fetch: Counter.AsyncVisitFetch
	kEngBarrier                 // container.barrier: Engine.Barrier
	kPartition                  // container.partition: the timing Partitioner wrapper
	kForAll                     // container.for_all: Counter.ForAll
	kInject                     // wire.inject: Wire.Inject through the decorator
	kEncode                     // codec.encode: one batch of record encodes
	kDecode                     // codec.decode: one batch of record decodes
	kHandler                    // app.handler: a handler the benchmark registered
	kPhase                      // app.phase: the benchmark's own loop around a phase
	numKinds
)

// kindInfo gives each span kind its name and its layer (the repository
// module it measures), and says how it is recorded:
//
//   - fine: numerous; only one span in fineKeepEvery is kept as a span
//     record (all others are, as long as the rank has room). Counts and
//     times stay exact: every span is timed.
//   - pct: every duration is kept, for percentiles.
var kindInfo = [numKinds]struct {
	name, layer string
	fine, pct   bool
}{
	kNew:        {name: "ygm.new", layer: "ygm"},
	kSend:       {name: "ygm.send", layer: "ygm", fine: true},
	kWaitEmpty:  {name: "ygm.wait_empty", layer: "ygm", pct: true},
	kAllreduce:  {name: "collective.allreduce", layer: "collective", pct: true},
	kBarrier:    {name: "collective.barrier", layer: "collective", pct: true},
	kEngineNew:  {name: "container.new", layer: "container"},
	kIncr:       {name: "container.async_incr", layer: "container", fine: true},
	kFetch:      {name: "container.async_fetch", layer: "container", fine: true},
	kEngBarrier: {name: "container.barrier", layer: "container", pct: true},
	kPartition:  {name: "container.partition", layer: "container", fine: true},
	kForAll:     {name: "container.for_all", layer: "container"},
	kInject:     {name: "wire.inject", layer: "wire", fine: true},
	kEncode:     {name: "codec.encode", layer: "codec", fine: true},
	kDecode:     {name: "codec.decode", layer: "codec", fine: true},
	kHandler:    {name: "app.handler", layer: "app", fine: true},
	kPhase:      {name: "app.phase", layer: "app"},
}

// layers lists the layers self time is reported for, in output order.
var layers = []string{"ygm", "collective", "container", "wire", "codec", "app"}

// blockingLayer marks the layers inside whose calls a rank can park in
// a blocking receive; the transport's measured wait is carved out of
// their self time.
var blockingLayer = map[string]bool{"ygm": true, "collective": true, "container": true}

const (
	// fineKeepEvery samples fine-grained spans into the span file.
	fineKeepEvery = 4096
	// maxKeptSpans bounds one rank's kept span records per world.
	maxKeptSpans = 1 << 16
	// maxFileSpans bounds the span file of one run.
	maxFileSpans = 100000
	// reconcileTolerance is the largest relative gap allowed between a
	// rank's wall time and the sum of its layer and app self times,
	// blocked time and tracing cost (the sum covers the whole rank body;
	// the gap is unspanned glue plus clock disagreement between the
	// transport's clock and ours).
	reconcileTolerance = 0.05
)

// Packet classes counted by the wire decorator.
const (
	pktData = iota
	pktTerm
	pktColl
	pktRound
	numPktClasses
)

var pktClassNames = [numPktClasses]string{"data", "term", "coll", "round"}

// replyTagBit is the discriminator collective.Comm.ReplyTag sets; the
// container layer's fetch replies travel on such tags and count as data.
const replyTagBit = transport.Tag(1) << 41

func classify(tag transport.Tag) int {
	switch {
	case tag >= transport.TagRound:
		return pktRound
	case tag >= transport.TagCollective && tag&replyTagBit != 0:
		return pktData
	case tag >= transport.TagCollective:
		return pktColl
	case tag == ygm.TagTerm:
		return pktTerm
	default:
		return pktData
	}
}

// openSpan is one span on a rank's stack.
type openSpan struct {
	kind   spanKind
	start  int64 // ns since the world's trace base
	child  int64 // summed (corrected) durations of direct children
	nested int64 // spans inside this one, at any depth
	rec    int32 // index into rankTrace.spans, or -1 when not kept
}

// spanRec is one kept span: name, start, end, parent and (implicitly,
// by its owner) rank.
type spanRec struct {
	kind       spanKind
	start, end int64
	parent     int32
}

// rankTrace is one rank's span state. It is confined to the rank's
// goroutine: the handlers, the wire's Inject and the partitioner all run
// there. A nil *rankTrace is the untraced mode: every method is a no-op.
type rankTrace struct {
	base  time.Time
	stack []openSpan
	count [numKinds]int64
	items [numKinds]int64
	total [numKinds]int64
	self  [numKinds]int64
	// durs keeps every pct span's duration.
	durs  [numKinds][]int64
	spans []spanRec
	fine  int64

	injBytes, injPkts int64
	pkts              [numPktClasses]int64

	// entry/exit bracket the rank body on the span clock; entryNow is the
	// transport's own clock (Proc.Now) at entry, for real-time wires.
	entry, exit int64
	entryNow    float64

	// cost is the calibrated cost of timing one span; covered sums the
	// raw durations of outermost spans, so covered minus the summed self
	// times is what tracing itself cost this rank.
	cost    spanCost
	covered int64
}

func (t *rankTrace) now() int64 { return int64(time.Since(t.base)) }

// spanCost is the cost of timing one span, in ns: inner is what a span
// with nothing in it measures (a clock read plus the bookkeeping between
// the two reads), outer what one timed span adds to the span around it.
type spanCost struct{ inner, outer int64 }

// calibrate measures spanCost on empty spans, taking the median of a
// few batches, on the same code path real spans take.
func calibrate() spanCost {
	const batches, n = 9, 2000
	var inner, outer []float64
	for b := 0; b < batches; b++ {
		t := &rankTrace{base: time.Now()}
		t.begin(kPhase)
		for i := 0; i < n; i++ {
			t.begin(kEncode)
			t.end()
		}
		t.end()
		inner = append(inner, float64(t.total[kEncode])/n)
		outer = append(outer, float64(t.total[kPhase])/n)
	}
	return spanCost{inner: int64(median(inner)), outer: int64(median(outer))}
}

func (t *rankTrace) begin(k spanKind) {
	if t == nil {
		return
	}
	n := len(t.stack)
	rec := int32(-1)
	keep := !kindInfo[k].fine
	if !keep {
		t.fine++
		keep = t.fine%fineKeepEvery == 0
	}
	if keep && len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{kind: k, parent: parent})
	}
	s := t.now()
	if rec >= 0 {
		t.spans[rec].start = s
	}
	t.stack = append(t.stack, openSpan{kind: k, start: s, rec: rec})
}

// end closes the innermost span, which covered one item.
func (t *rankTrace) end() { t.endN(1) }

// endN closes the innermost span, which covered n items (a batch).
func (t *rankTrace) endN(n int) {
	if t == nil {
		return
	}
	top := len(t.stack) - 1
	o := t.stack[top]
	t.stack = t.stack[:top]
	k := o.kind
	e := t.now()
	raw := e - o.start
	// Take out what timing this span and the spans inside it cost.
	d := raw - t.cost.inner - o.nested*t.cost.outer
	self := d - o.child
	t.count[k]++
	t.items[k] += int64(n)
	t.total[k] += d
	t.self[k] += self
	if top > 0 {
		t.stack[top-1].child += d
		t.stack[top-1].nested += o.nested + 1
	} else {
		t.covered += raw
	}
	if kindInfo[k].pct {
		t.durs[k] = append(t.durs[k], d)
	}
	if o.rec >= 0 {
		t.spans[o.rec].end = e
	}
}

// enter and leave bracket the rank body.
func (t *rankTrace) enter(p *transport.Proc) {
	if t == nil {
		return
	}
	t.entryNow = p.Now()
	t.entry = t.now()
}

func (t *rankTrace) leave() {
	if t == nil {
		return
	}
	t.exit = t.now()
}

// worldTrace holds the rank traces of one world plus the wire's
// world-level spans (Start and Finish run on the Run caller, not a rank).
type worldTrace struct {
	base  time.Time
	ranks []*rankTrace
	// mu guards wireStart and wireFinish: a TCP world runs one wire per
	// rank, each started and finished on its own Run caller.
	mu         sync.Mutex
	wireStart  []float64 // seconds, one per wire instance
	wireFinish []float64
	// call is the (first) Run call of the world, and bodyStarted when each
	// rank's body was entered.
	call        time.Time
	bodyStarted []time.Time
}

func newWorldTrace(size int, cost spanCost) *worldTrace {
	wt := &worldTrace{base: time.Now(), ranks: make([]*rankTrace, size), bodyStarted: make([]time.Time, size)}
	for i := range wt.ranks {
		wt.ranks[i] = &rankTrace{base: wt.base, cost: cost}
	}
	return wt
}

// rank returns rank r's trace; nil (untraced) on a nil world trace.
func (wt *worldTrace) rank(r machine.Rank) *rankTrace {
	if wt == nil {
		return nil
	}
	return wt.ranks[r]
}

// wrap decorates w so that every Inject, Start and Finish is timed; on
// a nil world trace it returns w unchanged.
func (wt *worldTrace) wrap(w transport.Wire) transport.Wire {
	if wt == nil {
		return w
	}
	return &tracedWire{Wire: w, wt: wt}
}

// partitioner returns the container partitioner for rank r: the default
// HashPartitioner, behind a timing wrapper when traced.
func (wt *worldTrace) partitioner(r machine.Rank) container.Partitioner {
	if wt == nil {
		return container.HashPartitioner{}
	}
	return timedPartitioner{inner: container.HashPartitioner{}, t: wt.ranks[r]}
}

// tracedWire is a transport.Wire decorator passed with WithWire. Inject
// runs on the sending rank's goroutine (the Wire contract), so it
// updates that rank's trace without locking.
type tracedWire struct {
	transport.Wire
	wt *worldTrace
}

func (w *tracedWire) Inject(p *transport.Proc, dst machine.Rank, pkt *transport.Packet) {
	t := w.wt.ranks[p.Rank()]
	t.injBytes += int64(len(pkt.Payload))
	t.injPkts++
	t.pkts[classify(pkt.Tag)]++
	t.begin(kInject)
	w.Wire.Inject(p, dst, pkt)
	t.end()
}

func (w *tracedWire) Start(world *transport.World) error {
	s := time.Now()
	err := w.Wire.Start(world)
	w.wt.mu.Lock()
	w.wt.wireStart = append(w.wt.wireStart, time.Since(s).Seconds())
	w.wt.mu.Unlock()
	return err
}

func (w *tracedWire) Finish() error {
	s := time.Now()
	err := w.Wire.Finish()
	w.wt.mu.Lock()
	w.wt.wireFinish = append(w.wt.wireFinish, time.Since(s).Seconds())
	w.wt.mu.Unlock()
	return err
}

// timedPartitioner times every owner lookup the container makes. Each
// rank builds its own counter with its own wrapper, so the trace it
// writes is that rank's.
type timedPartitioner struct {
	inner container.Partitioner
	t     *rankTrace
}

func (tp timedPartitioner) Owner(key []byte, world int) machine.Rank {
	tp.t.begin(kPartition)
	r := tp.inner.Owner(key, world)
	tp.t.end()
	return r
}

// traceAgg accumulates the traced worlds of one pass.
type traceAgg struct {
	count, items, total, self [numKinds]int64
	durs                      [numKinds][]int64
	injBytes, injPkts         int64
	pkts                      [numPktClasses]int64

	// layerBusy is each layer's self time net of blocked time, summed
	// over ranks (seconds); wall and blocked sum the rank wall and
	// transport-measured blocked times.
	layerBusy      map[string]float64
	wall, blocked  float64
	tracing        float64 // what timing the spans cost, summed over ranks (s)
	cost           spanCost
	reconcileErr   []float64 // per rank, relative
	runSetup       []float64 // per world: first Run call to the last body entry, s
	wireStart      []float64
	wireFinish     []float64
	events         []chromeEvent
	droppedEvents  int
	worldsRecorded int
}

func newTraceAgg() *traceAgg {
	return &traceAgg{layerBusy: make(map[string]float64), cost: calibrate()}
}

// add folds one finished world into the aggregate. rep is the world's
// report (for TCP, one report per process-local rank set). Real-time
// wires measure each rank's wall and blocked time on the transport's
// own clock; on the simulator the transport's clock is virtual, so the
// wall comes from the span clock and blocked time is not separable from
// the layers (it stays inside their self time).
func (a *traceAgg) add(wt *worldTrace, reps []*transport.Report) {
	byRank := make(map[machine.Rank]transport.RankReport)
	wallClock := false
	for _, rep := range reps {
		wallClock = rep.Wall
		for _, rr := range rep.Ranks {
			byRank[rr.Rank] = rr
		}
	}
	a.runSetup = append(a.runSetup, latest(wt.bodyStarted).Sub(wt.call).Seconds())
	a.wireStart = append(a.wireStart, wt.wireStart...)
	a.wireFinish = append(a.wireFinish, wt.wireFinish...)
	world := a.worldsRecorded
	a.worldsRecorded++
	for r, t := range wt.ranks {
		for k := spanKind(0); k < numKinds; k++ {
			a.count[k] += t.count[k]
			a.items[k] += t.items[k]
			a.total[k] += t.total[k]
			a.self[k] += t.self[k]
			a.durs[k] = append(a.durs[k], t.durs[k]...)
		}
		a.injBytes += t.injBytes
		a.injPkts += t.injPkts
		for c := range t.pkts {
			a.pkts[c] += t.pkts[c]
		}

		wall := float64(t.exit-t.entry) / 1e9
		blocked := 0.0
		if rr, ok := byRank[machine.Rank(r)]; ok && wallClock {
			wall = rr.Time - t.entryNow
			blocked = rr.Wait
		}
		layerSelf := make(map[string]float64)
		spanned := 0.0
		for k := spanKind(0); k < numKinds; k++ {
			s := float64(t.self[k]) / 1e9
			layerSelf[kindInfo[k].layer] += s
			spanned += s
		}
		covered := float64(t.covered) / 1e9
		a.tracing += covered - spanned
		blockingSelf := 0.0
		for l, s := range layerSelf {
			if blockingLayer[l] {
				blockingSelf += s
			}
		}
		for l, s := range layerSelf {
			if blockingLayer[l] && blockingSelf > 0 {
				s -= blocked * s / blockingSelf
			}
			a.layerBusy[l] += s
		}
		// Σ busy + app + blocked + tracing == covered by construction; the
		// check is covered against the independently clocked wall.
		a.wall += wall
		a.blocked += blocked
		if wall > 0 {
			d := (wall - covered) / wall
			if d < 0 {
				d = -d
			}
			a.reconcileErr = append(a.reconcileErr, d)
		}
		for _, s := range t.spans {
			if len(a.events) >= maxFileSpans {
				a.droppedEvents++
				continue
			}
			a.events = append(a.events, chromeEvent{
				Name: kindInfo[s.kind].name, Ph: "X", Pid: world, Tid: r,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: map[string]int32{"parent": s.parent},
			})
		}
	}
}

// chromeEvent is one complete span in Chrome trace_event JSON, which
// Perfetto and chrome://tracing load: pid is the world, tid the rank,
// and args.parent the index of the enclosing kept span on that rank in
// the same world (-1 for none).
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Args map[string]int32 `json:"args"`
}

// writeSpans writes the kept spans to dir/name.json.
func (a *traceAgg) writeSpans(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(map[string]any{
		"traceEvents":   a.events,
		"droppedEvents": a.droppedEvents,
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	return nil
}
