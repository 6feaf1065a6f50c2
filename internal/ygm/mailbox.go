package ygm

import (
	"fmt"
	"sort"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/obs"
	"ygm/internal/transport"
)

// Sender is the messaging surface exposed to receive callbacks: all
// three mailbox variants implement it, so application handlers work
// unchanged on any exchange style.
type Sender interface {
	// Send queues a point-to-point message for dst.
	Send(dst machine.Rank, payload []byte)
	// Broadcast queues a broadcast to every other rank.
	Broadcast(payload []byte)
}

// Handler is a mailbox receive callback, invoked once per delivered
// message. Handlers may call s.Send and s.Broadcast (data-dependent
// message spawning, as in graph traversals) but must not call WaitEmpty,
// TestEmpty, or Exchange, and must not retain the payload slice —
// delivery buffers are pooled and recycled once the packet is fully
// dispatched. Handlers that must keep payloads copy them, or construct
// the mailbox with WithCopyOnDeliver.
type Handler func(s Sender, payload []byte)

// ExchangeStyle selects how a mailbox realizes the paper's exchanges.
type ExchangeStyle int

const (
	// RoundExchange is the paper's protocol: each communication context
	// is a round of one (possibly empty) message per exchange partner
	// per stage, letting forwards coalesce with direct traffic. The
	// production-faithful default.
	RoundExchange ExchangeStyle = iota
	// LazyExchange never round-matches: flushes send whatever is
	// buffered, receives are opportunistic, and termination is purely
	// the counting consensus. Strictly more asynchronous; supports
	// TestEmpty polling.
	LazyExchange
	// SyncExchange realizes every exchange phase as a synchronous
	// ALLTOALLV collective (Section III-A's bulk-synchronous variant).
	SyncExchange
)

// String names the exchange style.
func (e ExchangeStyle) String() string {
	switch e {
	case RoundExchange:
		return "round"
	case LazyExchange:
		return "lazy"
	case SyncExchange:
		return "sync"
	}
	return fmt.Sprintf("ExchangeStyle(%d)", int(e))
}

// Options configures a mailbox. Applications compose Option values
// (WithScheme, WithCapacity, ...) instead of assembling this struct;
// it remains exported as the configuration record those options fill in.
type Options struct {
	// Scheme selects the routing protocol. Default NoRoute.
	Scheme machine.Scheme
	// Capacity is the number of queued records that triggers a flush of
	// all coalescing buffers — the paper's "mailbox size" (its
	// experiments fix 2^18). Default 1024.
	Capacity int
	// PollEvery is how many Sends pass between opportunistic polls of
	// the inbox (lazy exchange only). Default 8.
	PollEvery int
	// Exchange selects the exchange semantics. Default RoundExchange.
	Exchange ExchangeStyle
	// ZeroCopyLocal hands same-node coalescing buffers to the receiver
	// without the pack-time copy; see WithZeroCopyLocal.
	ZeroCopyLocal bool
	// CopyOnDeliver copies each payload before the handler sees it; see
	// WithCopyOnDeliver.
	CopyOnDeliver bool
	// Tap, when non-nil, observes every record queued for an exchange
	// (oracle instrumentation; see Tap). Nil in production.
	Tap Tap
	// Hooks, when non-nil, inject deliberate faults for the mutation
	// smoke tests (see TestHooks). Nil in production.
	Hooks *TestHooks
}

// Box is the mailbox surface the applications program against: queue
// messages, then wait for global quiescence. All three exchange styles
// satisfy it.
type Box interface {
	Sender
	// WaitEmpty blocks until global quiescence. Collective.
	WaitEmpty()
	// TestEmpty makes nonblocking progress on quiescence detection and
	// reports whether it has been established. Only the lazy mailbox
	// supports it; the round-matched and synchronous variants return
	// ErrUnsupported (their exchanges are collective, so they cannot
	// progress unilaterally).
	TestEmpty() (bool, error)
	// Stats returns the mailbox counters.
	Stats() Stats
	// PendingSends reports records queued but not yet exchanged.
	PendingSends() int
	// Proc exposes the transport endpoint the mailbox runs on, so
	// layers above (collectives, the container engine) can share it
	// without threading it separately.
	Proc() *transport.Proc
}

var (
	_ Box = (*Mailbox)(nil)
	_ Box = (*RoundMailbox)(nil)
	_ Box = (*SyncMailbox)(nil)
)

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 1024
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 8
	}
	return o
}

// hopUniverse returns the partner set a mailbox builds its dense slot
// table over. With a routing-mutation hook installed (testing only) the
// universe widens to every rank, so deliberately wrong hops reach the
// transport and the delivery oracle — rather than a slot-table panic —
// is what catches them.
func (o Options) hopUniverse(topo machine.Topology, me machine.Rank) []machine.Rank {
	if o.Hooks != nil && o.Hooks.NextHop != nil {
		return topo.HopPartners(machine.NoRoute, me)
	}
	return topo.HopPartners(o.Scheme, me)
}

// Stats counts mailbox-level activity for one rank.
type Stats struct {
	// Sends is the number of application point-to-point messages queued.
	Sends uint64
	// Broadcasts is the number of Broadcast calls.
	Broadcasts uint64
	// Delivered is the number of messages handed to the callback.
	Delivered uint64
	// Flushes counts communication-context entries that sent at least
	// one packet.
	Flushes uint64
	// HopsSent / HopsRecv count record transmissions and receptions,
	// including intermediary forwarding (the termination counters).
	HopsSent uint64
	HopsRecv uint64
	// Generations counts termination-detection rounds (diagnostic).
	Generations uint64
	// EmptyRoundMsgs counts the empty exchange messages the
	// round-matched protocol sends when a rank has nothing for a partner
	// — the "empty buffers" Section IV-B's termination detection keys
	// on. Always zero for the lazy mailbox.
	EmptyRoundMsgs uint64
}

// Mailbox is the lazy-exchange YGM communication endpoint for one rank.
// It is confined to its rank's goroutine. All ranks of the world must
// construct their mailbox with identical Options; WaitEmpty is a
// collective operation.
type Mailbox struct {
	p       *transport.Proc
	opts    Options
	handler Handler
	stats   Stats
	// cost caches the model scalars charged per dispatched record.
	cost recordCost

	// router is the precomputed next-hop table for this rank.
	router *machine.Router
	// slots holds the per-partner coalescing buffers.
	slots  hopSlots
	queued int

	// drainScratch is the reusable packet batch for drainAvailable.
	drainScratch []*transport.Packet

	sinceLastPoll int
	// processing counts packets currently being handled (a depth, not a
	// flag: a handler that illegally re-enters the termination path can
	// nest packet processing before the watchdog catches it).
	processing int

	// leakStash holds the one delivery claimed by the LeakDelivery
	// mutation hook until the next detection generation releases it.
	// Always empty outside mutation smoke tests.
	leakStash []byte
	leakHeld  bool

	// Flush-cause counters, resolved once from the rank's metric
	// registry: what drove each communication context — capacity
	// overflow on the send path, forward overflow while dispatching,
	// the pre-termination drain, or an explicit Flush call.
	cFlushCapacity *obs.Counter
	cFlushForward  *obs.Counter
	cFlushDrain    *obs.Counter
	cFlushExplicit *obs.Counter

	term termDetector
}

// newLazy creates a lazy-exchange mailbox on rank p.
func newLazy(p *transport.Proc, handler Handler, opts Options) *Mailbox {
	if handler == nil {
		panic("ygm: nil handler")
	}
	mb := &Mailbox{
		p:       p,
		opts:    opts.withDefaults(),
		handler: handler,
		cost:    newRecordCost(p.Model()),
	}
	topo := p.Topo()
	mb.router = topo.NewRouter(mb.opts.Scheme, p.Rank())
	mb.slots.init(topo, p.Rank(), mb.opts.hopUniverse(topo, p.Rank()))
	m := p.Metrics()
	mb.cFlushCapacity = m.Counter("ygm.flush.capacity")
	mb.cFlushForward = m.Counter("ygm.flush.forward")
	mb.cFlushDrain = m.Counter("ygm.flush.drain")
	mb.cFlushExplicit = m.Counter("ygm.flush.explicit")
	mb.term.init(p, &mb.stats)
	mb.term.hooks = mb.opts.Hooks
	return mb
}

// Proc returns the underlying transport endpoint.
func (mb *Mailbox) Proc() *transport.Proc { return mb.p }

// Scheme returns the routing scheme in use.
func (mb *Mailbox) Scheme() machine.Scheme { return mb.opts.Scheme }

// Stats returns a copy of the mailbox counters.
func (mb *Mailbox) Stats() Stats { return mb.stats }

// nextHop routes one unicast record held by this rank: a routing-table
// load, or the mutation hook when one is installed.
//
//ygm:hotpath
func (mb *Mailbox) nextHop(dst machine.Rank) machine.Rank {
	if mb.opts.Hooks != nil && mb.opts.Hooks.NextHop != nil {
		return mb.opts.Hooks.NextHop(mb.p.Topo(), mb.opts.Scheme, mb.p.Rank(), dst)
	}
	return mb.router.Next(dst)
}

// Send queues a point-to-point message for dst. If dst is the calling
// rank the message is delivered synchronously. Queueing may trigger a
// communication context (flush plus opportunistic receive) when the
// mailbox reaches capacity.
//
//ygm:hotpath
func (mb *Mailbox) Send(dst machine.Rank, payload []byte) {
	if !mb.p.Topo().Valid(dst) {
		panic(fmt.Sprintf("ygm: send to invalid rank %d", dst))
	}
	mb.stats.Sends++
	if dst == mb.p.Rank() {
		mb.deliver(payload)
		return
	}
	mb.enqueue(mb.nextHop(dst), kindUnicast, dst, payload)
	mb.afterQueue()
	mb.checkCapacityBound()
}

// Broadcast queues a broadcast of payload to every other rank, routed by
// the scheme-specific fan-out of Section III (NodeRemote and NLNR use
// N-1 remote messages; NodeLocal uses C*(N-1); NoRoute sends individual
// copies). The origin does not deliver to itself.
func (mb *Mailbox) Broadcast(payload []byte) {
	mb.stats.Broadcasts++
	topo := mb.p.Topo()
	me := mb.p.Rank()
	node, core := topo.Node(me), topo.Core(me)
	switch mb.opts.Scheme {
	case machine.NoRoute:
		for r := machine.Rank(0); int(r) < topo.WorldSize(); r++ {
			if r != me {
				mb.enqueue(r, kindUnicast, r, payload)
			}
		}
	case machine.NodeLocal:
		// Local fan-out to every other core offset; this rank covers its
		// own core offset's remote channel directly.
		for c := 0; c < topo.Cores(); c++ {
			if c != core {
				mb.enqueue(topo.RankOf(node, c), kindBcastLocalFanout, machine.Nil, payload)
			}
		}
		for n := 0; n < topo.Nodes(); n++ {
			if n != node {
				mb.enqueue(topo.RankOf(n, core), kindBcastDeliver, machine.Nil, payload)
			}
		}
	case machine.NodeRemote:
		for n := 0; n < topo.Nodes(); n++ {
			if n != node {
				mb.enqueue(topo.RankOf(n, core), kindBcastRemoteDistribute, machine.Nil, payload)
			}
		}
		for c := 0; c < topo.Cores(); c++ {
			if c != core {
				mb.enqueue(topo.RankOf(node, c), kindBcastDeliver, machine.Nil, payload)
			}
		}
	case machine.NLNR:
		// Local fan-out cores relay to their residue classes; this rank
		// covers its own class itself.
		for c := 0; c < topo.Cores(); c++ {
			if c != core {
				mb.enqueue(topo.RankOf(node, c), kindBcastNLNRFanout, machine.Nil, payload)
			}
		}
		mb.nlnrBcastFanout(payload)
	default:
		panic("ygm: unknown scheme")
	}
	mb.afterQueue()
	mb.checkCapacityBound()
}

// nlnrBcastFanout sends the NLNR remote-distribution stage for the
// calling rank's residue class: one message per other node n' with
// n' mod C == this core's offset, addressed to core (myNode mod C).
func (mb *Mailbox) nlnrBcastFanout(payload []byte) {
	topo := mb.p.Topo()
	node, core := topo.Node(mb.p.Rank()), topo.Core(mb.p.Rank())
	for n := core; n < topo.Nodes(); n += topo.Cores() {
		if n != node {
			mb.enqueue(topo.NLNRRemoteIntermediary(node, n), kindBcastNLNRDistribute, machine.Nil, payload)
		}
	}
}

// enqueue appends one record to the coalescing slot for hop.
//
//ygm:hotpath
func (mb *Mailbox) enqueue(hop machine.Rank, kind recordKind, dst machine.Rank, payload []byte) {
	if hop == mb.p.Rank() {
		panic(fmt.Sprintf("ygm: routing produced a self-hop on rank %d", hop))
	}
	b := mb.slots.buf(hop)
	if b == nil {
		panic(fmt.Sprintf("ygm: rank %d has no coalescing slot for hop %d under %v",
			mb.p.Rank(), hop, mb.opts.Scheme))
	}
	appendRecord(&b.w, kind, dst, payload)
	b.count++
	mb.queued++
	mb.opts.tapQueued(mb.p.Rank(), hop, dst, kind, payload)
}

// afterQueue runs the capacity check and opportunistic poll that follow
// any application-level queueing operation.
//
//ygm:hotpath
func (mb *Mailbox) afterQueue() {
	if mb.processing > 0 {
		// Forwards spawned while handling a packet are flushed by the
		// caller once the whole packet is processed.
		return
	}
	if mb.queued >= mb.opts.Capacity {
		mb.cFlushCapacity.Inc()
		mb.enterCommContext()
		return
	}
	mb.sinceLastPoll++
	if mb.sinceLastPoll >= mb.opts.PollEvery {
		mb.sinceLastPoll = 0
		for mb.pollOnce() {
		}
	}
}

// enterCommContext is the paper's "mailbox full" behaviour: flush all
// buffers, then process every message that has (virtually) arrived —
// which may enqueue forwards, which are flushed in turn.
func (mb *Mailbox) enterCommContext() {
	sp := mb.p.Span("lazy.commctx")
	mb.flushAll()
	for mb.pollOnce() {
		if mb.queued >= mb.opts.Capacity {
			mb.flushAll()
		}
	}
	mb.flushAll()
	sp.End()
}

// pollOnce processes at most one arrived data packet without waiting.
// It reports whether a packet was processed.
func (mb *Mailbox) pollOnce() bool {
	pkt := mb.p.Poll(transport.TagData)
	if pkt == nil {
		return false
	}
	mb.processPacket(pkt)
	return true
}

// flushAll sends every non-empty coalescing buffer to its hop rank.
// Buffers are sent in first-use order; each becomes one pooled transport
// packet whose payload returns to the pool at the receiver.
//
//ygm:hotpath
func (mb *Mailbox) flushAll() {
	if mb.queued == 0 {
		return
	}
	sent := false
	for _, i := range mb.slots.active {
		b := &mb.slots.slots[i]
		if b.count == 0 {
			continue
		}
		mb.stats.HopsSent += uint64(b.count)
		mb.queued -= b.count
		b.count = 0
		sendPooledBuf(mb.p, b, transport.TagData, mb.opts.ZeroCopyLocal)
		sent = true
	}
	mb.slots.active = mb.slots.active[:0]
	if sent {
		mb.stats.Flushes++
	}
	if mb.queued != 0 {
		panic("ygm: queued-record accounting out of balance")
	}
}

// processPacket decodes and dispatches every record in pkt, recycles the
// packet, then flushes any forwards the records generated.
//
//ygm:hotpath
func (mb *Mailbox) processPacket(pkt *transport.Packet) {
	mb.processing++
	reorder := mb.opts.reorderPacket(mb.p.Rank(), pkt.Src)
	var held record
	var haveHeld bool
	r := codec.NewReader(pkt.Payload)
	for r.Remaining() > 0 {
		rec, err := parseRecord(r)
		if err != nil {
			panic(fmt.Sprintf("ygm: rank %d corrupt packet from %d: %v", mb.p.Rank(), pkt.Src, err))
		}
		mb.stats.HopsRecv++
		// Per-record handling is a few nanoseconds plus a memcpy; the
		// per-message overhead was already charged when the packet was
		// received. Coalescing amortizes exactly this difference.
		mb.p.Compute(mb.cost.handling(len(rec.payload)))
		if reorder && !haveHeld {
			// Mutation hook: the first record waits until the rest of
			// the packet has dispatched; its payload stays valid because
			// the packet is recycled only after the loop.
			held, haveHeld = rec, true
			continue
		}
		mb.dispatch(rec)
	}
	if haveHeld {
		mb.dispatch(held)
	}
	mb.processing--
	// Forwards were re-encoded into coalescing slots and deliveries have
	// returned, so nothing aliases the packet buffer any more.
	mb.p.Recycle(pkt)
	if mb.queued >= mb.opts.Capacity {
		mb.cFlushForward.Inc()
		mb.flushAll()
	}
}

// dispatch delivers or forwards one record according to its kind.
// Forwarded payloads are copied into the destination slot's buffer by
// appendRecord itself, so no intermediate per-record copy is needed.
//
//ygm:hotpath
func (mb *Mailbox) dispatch(rec record) {
	topo := mb.p.Topo()
	me := mb.p.Rank()
	switch rec.kind {
	case kindUnicast:
		if rec.dst == me {
			mb.deliver(rec.payload)
			return
		}
		mb.enqueue(mb.nextHop(rec.dst), kindUnicast, rec.dst, rec.payload)
	case kindBcastDeliver:
		mb.deliver(rec.payload)
	case kindBcastLocalFanout:
		mb.deliver(rec.payload)
		node, core := topo.Node(me), topo.Core(me)
		for n := 0; n < topo.Nodes(); n++ {
			if n != node {
				mb.enqueue(topo.RankOf(n, core), kindBcastDeliver, machine.Nil, rec.payload)
			}
		}
	case kindBcastRemoteDistribute, kindBcastNLNRDistribute:
		mb.deliver(rec.payload)
		node, core := topo.Node(me), topo.Core(me)
		for c := 0; c < topo.Cores(); c++ {
			if c != core {
				mb.enqueue(topo.RankOf(node, c), kindBcastDeliver, machine.Nil, rec.payload)
			}
		}
	case kindBcastNLNRFanout:
		mb.deliver(rec.payload)
		mb.nlnrBcastFanout(rec.payload)
	default:
		panic(fmt.Sprintf("ygm: unknown record kind %d", rec.kind))
	}
}

// deliver invokes the handler, charging the per-message compute cost;
// the drop and leak mutation hooks intercept it first.
//
//ygm:hotpath
func (mb *Mailbox) deliver(payload []byte) {
	if mb.opts.dropDelivery(mb.p.Rank(), payload) {
		return
	}
	if !mb.leakHeld && mb.opts.leakDelivery(mb.p.Rank(), payload) {
		mb.stashLeak(payload)
		return
	}
	mb.deliverNow(payload)
}

// stashLeak copies one hook-claimed delivery aside (the payload aliases
// a packet buffer about to be recycled); releaseLeak replays it.
// Mutation-test path only, never reached with a nil hook.
func (mb *Mailbox) stashLeak(payload []byte) {
	mb.leakStash = append(mb.leakStash[:0], payload...)
	mb.leakHeld = true
}

// releaseLeak delivers the stashed leak, if any.
func (mb *Mailbox) releaseLeak() {
	if mb.leakHeld {
		mb.leakHeld = false
		mb.deliverNow(mb.leakStash)
	}
}

// deliverNow is the undeflected tail of deliver.
//
//ygm:hotpath
func (mb *Mailbox) deliverNow(payload []byte) {
	mb.stats.Delivered++
	mb.p.Compute(mb.cost.perMsg)
	if mb.opts.CopyOnDeliver {
		c := make([]byte, len(payload)) //ygmvet:ignore allocinloop -- opt-in retain-safety copy; off on the default path
		copy(c, payload)
		payload = c
	}
	mb.handler(mb, payload)
}

// drainAvailable flushes pending buffers, then processes every
// physically present data packet (fast-forwarding the virtual clock to
// arrivals), then flushes any forwards the processing spawned. The
// pending-tail flush comes FIRST — Section IV-B's "YGM flushes its
// pending send buffers" on entering termination — so tail packets carry
// the clock of the rank's own work, not of whatever arrivals it happened
// to absorb first (which would serialize ranks into a virtual-time
// ratchet).
func (mb *Mailbox) drainAvailable() {
	sp := mb.p.Span("lazy.drain")
	defer sp.End()
	if mb.leakHeld {
		// A leaked delivery (mutation hook) re-enters one detection
		// generation after it was stashed, before this drain's flush so
		// anything its handler spawns still rides this wave.
		mb.releaseLeak()
	}
	mb.cFlushDrain.Inc()
	mb.flushAll()
	if mb.processing > 0 {
		// A handler illegally re-entered the termination path (the
		// blockincallback pattern). Drain into a private batch so the
		// outer drain's scratch stays intact; the collective step that
		// follows will block and the deadlock watchdog reports the abuse.
		var scratch []*transport.Packet
		mb.drainWaves(&scratch)
		return
	}
	mb.drainWaves(&mb.drainScratch)
}

// drainWaves processes arrived packets in waves — each wave is the set
// physically present right now, batched out of the inbox under one lock
// — flushing the forwards each wave generates, so multi-hop routes
// pipeline wave by wave instead of buffering a whole drain.
func (mb *Mailbox) drainWaves(scratch *[]*transport.Packet) {
	for {
		batch := mb.p.DrainBatch(transport.TagData, (*scratch)[:0])
		*scratch = batch
		if len(batch) == 0 {
			return
		}
		for i, pkt := range batch {
			mb.p.Absorb(pkt)
			mb.processPacket(pkt)
			batch[i] = nil
		}
		mb.flushAll()
	}
}

// WaitEmpty flushes pending buffers and blocks until every rank's
// mailbox is globally quiet: all buffers flushed, all record hops
// received, and no new activity between two consecutive global counts
// (Section IV-B). It is a collective operation: every rank must call it,
// and all ranks return during the same detection generation. The mailbox
// remains usable afterwards.
func (mb *Mailbox) WaitEmpty() {
	sp := mb.p.Span("lazy.waitempty")
	defer sp.End()
	for {
		mb.drainAvailable()
		if mb.term.step(true) {
			mb.term.reset()
			// Safety valve for the leak mutation hook: a stash claimed in
			// the final generation must not outlive the barrier, or the
			// mutant would turn into a lost delivery.
			mb.releaseLeak()
			checkQuiescent(mb.p, mb.queued, "WaitEmpty")
			return
		}
	}
}

// TestEmpty makes nonblocking progress on termination detection and
// reports whether global quiescence has been established. Callers that
// maintain external work queues (the HavoqGT pattern) call it in a loop,
// interleaving their own work; once any rank observes true, every rank
// will observe true for the same generation. After returning true the
// detector resets and the mailbox can be reused. The error is always nil
// for this variant.
func (mb *Mailbox) TestEmpty() (bool, error) {
	mb.drainAvailable()
	if mb.term.step(false) {
		mb.term.reset()
		mb.releaseLeak()
		checkQuiescent(mb.p, mb.queued, "TestEmpty")
		return true, nil
	}
	return false, nil
}

// PendingSends returns the number of records currently queued in
// coalescing buffers (diagnostic).
func (mb *Mailbox) PendingSends() int { return mb.queued }

// Flush forces the communication context to run even if the mailbox is
// below capacity (exposed for tests and latency-sensitive callers).
func (mb *Mailbox) Flush() {
	mb.cFlushExplicit.Inc()
	mb.enterCommContext()
}

// sortedHops returns the hop ranks currently holding queued records, in
// ascending order (test helper).
func (mb *Mailbox) sortedHops() []machine.Rank {
	hops := make([]machine.Rank, 0, len(mb.slots.active))
	for _, i := range mb.slots.active {
		if mb.slots.slots[i].count > 0 {
			hops = append(hops, mb.slots.slots[i].hop)
		}
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	return hops
}
