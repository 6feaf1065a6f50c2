// Package container provides YGM's headline user-facing feature: owner-
// computes partitioned storage containers (Map, Set, Bag, Counter)
// layered purely on the asynchronous mailbox. Insertions, erasures, and
// visitor RPCs may be issued from any rank at any time; each key lives
// on exactly one owning rank (chosen by a pluggable Partitioner) and
// every mutation is shipped there as a fire-and-forget mailbox message.
// Quiescence — "all issued operations have been applied" — is the
// mailbox's own termination-detected WaitEmpty.
//
// The package is a thin veneer: it adds no communication path of its
// own. Container traffic, AsyncVisitFetch replies included, is ordinary
// coalesced mailbox traffic (the zero-alloc exchange hot path), so
// termination detection counts every reply, and the synchronizability
// oracle and the delivery oracle judge container workloads exactly as
// they judge raw mailbox workloads.
package container

import (
	"fmt"

	"ygm/internal/codec"
	"ygm/internal/collective"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// Operation opcodes, shared by every container type. One engine message
// is [cid uvarint][op byte][op-specific fields]; all variable-length
// fields are length-prefixed (codec Bytes0/String framing).
const (
	opInsert byte = iota + 1 // key, value
	opErase                  // key
	opAdd                    // delta, key (counter accumulation)
	opVisit                  // visitor id, key, arg
	opFetch                  // visitor id, fetch id, caller, key, arg
	opReply                  // fetch id, reply bytes (to the end of the frame)
)

// instance is the owner-side face of one container: the engine decodes
// the common frame and hands the fields to the instance registered under
// the message's container id.
type instance interface {
	applyInsert(key, val []byte)
	applyErase(key []byte)
	applyAdd(key []byte, delta uint64)
	runVisit(vid uint64, key, arg []byte)
	runFetch(vid uint64, key, arg []byte, reply *codec.Writer)
	localLen() uint64
}

// Engine multiplexes any number of containers over one mailbox. All
// ranks must construct their engines, containers, and visitor
// registrations collectively in the same order: container ids and
// visitor ids are assigned sequentially, and matching ids on every rank
// is what makes a shipped operation run the right code on the owner.
//
// An Engine (like the mailbox under it) is confined to its rank's
// goroutine.
type Engine struct {
	mb   ygm.Box
	p    *transport.Proc
	comm *collective.Comm

	conts []instance

	// writers and readers are depth-indexed scratch stacks. Handlers may
	// issue container operations of their own (chained visits), and a
	// self-owned operation delivers synchronously inside the issuing
	// call, so encode/decode scratch must nest: each logical operation
	// pushes a slot, and anything it triggers uses deeper slots. Slots
	// are allocated once and reused, keeping the steady state clean.
	writers []*codec.Writer
	wDepth  int
	readers []*codec.Reader
	rDepth  int

	// Fetch plumbing: callbacks for replies this rank is waiting on,
	// keyed by a locally unique fetch id. An entry lives from the issuing
	// call until its reply is delivered.
	fetches   map[uint64]func(reply []byte)
	nextFetch uint64
}

// NewEngine builds the container engine for this rank. Collective: every
// rank must call it at the same point in its construction sequence (the
// world communicator underneath draws a CommNonce). Options are passed
// through to ygm.New, so callers pick the exchange variant, routing
// scheme, and capacity exactly as for a raw mailbox.
func NewEngine(p *transport.Proc, opts ...ygm.Option) *Engine {
	e := &Engine{
		p:       p,
		comm:    collective.World(p),
		fetches: make(map[uint64]func(reply []byte)),
	}
	e.mb = ygm.New(p, e.handle, opts...)
	return e
}

// Mailbox exposes the engine's mailbox (stats, PendingSends).
func (e *Engine) Mailbox() ygm.Box { return e.mb }

// Proc exposes the transport endpoint the engine runs on.
func (e *Engine) Proc() *transport.Proc { return e.p }

// register assigns the next container id. Collective order matters.
func (e *Engine) register(c instance) uint64 {
	e.conts = append(e.conts, c)
	return uint64(len(e.conts) - 1)
}

// pushWriter returns a reset scratch writer for one encode, nested under
// any encodes already in flight on this rank.
func (e *Engine) pushWriter() *codec.Writer {
	if e.wDepth == len(e.writers) {
		e.writers = append(e.writers, codec.NewWriter(64)) //ygmvet:ignore allocinloop -- depth grows to the chain depth once, then slots are reused
	}
	w := e.writers[e.wDepth]
	e.wDepth++
	w.Reset()
	return w
}

func (e *Engine) popWriter() { e.wDepth-- }

// pushReader returns a reader over payload, nested like pushWriter.
func (e *Engine) pushReader(payload []byte) *codec.Reader {
	if e.rDepth == len(e.readers) {
		e.readers = append(e.readers, codec.NewReader(nil)) //ygmvet:ignore allocinloop -- depth grows to the chain depth once, then slots are reused
	}
	r := e.readers[e.rDepth]
	e.rDepth++
	r.Reset(payload)
	return r
}

func (e *Engine) popReader() {
	e.rDepth--
	// Drop the payload alias: the slot must not outlive the handler's
	// borrow of the (possibly pooled) delivery buffer.
	e.readers[e.rDepth].Reset(nil)
}

// handle is the engine's mailbox handler: decode the common frame, then
// run the operation on the owning container. All fields are decoded
// (as views into the payload, which stays valid for the whole handler)
// before any visitor runs, because a visitor may issue chained
// operations that reuse the scratch stacks underneath us.
//
//ygm:hotpath
func (e *Engine) handle(s ygm.Sender, payload []byte) {
	r := e.pushReader(payload) //ygmvet:ignore payloadescape -- every dispatch arm pops (and nils) the slot before visitors run; the alias never outlives the handler
	cid := e.mustUvarint(r)
	op := e.mustByte(r)
	if cid >= uint64(len(e.conts)) {
		panic(fmt.Sprintf("container: rank %d: message for unregistered container %d", e.p.Rank(), cid))
	}
	c := e.conts[cid]
	switch op {
	case opInsert:
		key := e.mustBytes(r)
		val := e.mustBytes(r)
		e.popReader()
		c.applyInsert(key, val)
	case opErase:
		key := e.mustBytes(r)
		e.popReader()
		c.applyErase(key)
	case opAdd:
		delta := e.mustUvarint(r)
		key := e.mustBytes(r)
		e.popReader()
		c.applyAdd(key, delta)
	case opVisit:
		vid := e.mustUvarint(r)
		key := e.mustBytes(r)
		arg := e.mustBytes(r)
		e.popReader()
		c.runVisit(vid, key, arg)
	case opFetch:
		vid := e.mustUvarint(r)
		fid := e.mustUvarint(r)
		caller := machine.Rank(e.mustUvarint(r))
		key := e.mustBytes(r)
		arg := e.mustBytes(r)
		e.popReader()
		w := e.pushWriter()
		w.Uvarint(cid)
		w.Byte(opReply)
		w.Uvarint(fid)
		c.runFetch(vid, key, arg, w)
		e.mb.Send(caller, w.Bytes())
		e.popWriter()
	case opReply:
		fid := e.mustUvarint(r)
		reply := payload[r.Offset():]
		e.popReader()
		cb, ok := e.fetches[fid]
		if !ok {
			panic(fmt.Sprintf("container: rank %d: reply for unknown fetch %d", e.p.Rank(), fid))
		}
		delete(e.fetches, fid)
		// The reply is a view into the delivery buffer: cb must not
		// retain it.
		cb(reply)
	default:
		panic(fmt.Sprintf("container: rank %d: unknown opcode %d", e.p.Rank(), op))
	}
}

// Barrier blocks until every container operation issued by any rank —
// including fetch replies and anything their callbacks spawn — has been
// applied. Collective over all ranks.
//
// Replies are ordinary mailbox records, so the mailbox's termination
// detection already counts them: once WaitEmpty returns, every reply
// has been delivered and every callback has run. A fetch still pending
// here means a reply was lost, which is a bug below this layer.
func (e *Engine) Barrier() {
	e.mb.WaitEmpty()
	if n := len(e.fetches); n != 0 {
		panic(fmt.Sprintf("container: rank %d: %d fetch callbacks pending after quiescence", e.p.Rank(), n))
	}
}

// allreduceSum is the post-Barrier reduction containers use for Size.
func (e *Engine) allreduceSum(v uint64) uint64 {
	vals := [1]uint64{v}
	return e.comm.AllreduceU64(vals[:], collective.SumU64)[0]
}

// asyncFetch registers cb and ships an opFetch to owner; the owner
// answers with an opReply record. Once the callback table is warm the
// request/reply cycle itself allocates nothing; a callback that is a
// fresh closure per call costs the caller that closure.
func (e *Engine) asyncFetch(owner machine.Rank, cid, vid uint64, key, arg []byte, cb func(reply []byte)) {
	fid := e.nextFetch
	e.nextFetch++
	e.fetches[fid] = cb
	w := e.pushWriter()
	w.Uvarint(cid)
	w.Byte(opFetch)
	w.Uvarint(vid)
	w.Uvarint(fid)
	w.Uvarint(uint64(e.p.Rank()))
	w.Bytes0(key)
	w.Bytes0(arg)
	e.mb.Send(owner, w.Bytes())
	e.popWriter()
}

// Decode helpers: corrupt container frames are programming errors (the
// encode side is this same package), so they panic like the mailbox's
// own record parser. The error formatting sits behind the check so the
// happy path stays allocation-free.

func (e *Engine) mustUvarint(r *codec.Reader) uint64 {
	v, err := r.Uvarint()
	if err != nil {
		panic(fmt.Sprintf("container: rank %d: corrupt frame: %v", e.p.Rank(), err))
	}
	return v
}

func (e *Engine) mustByte(r *codec.Reader) byte {
	b, err := r.Byte()
	if err != nil {
		panic(fmt.Sprintf("container: rank %d: corrupt frame: %v", e.p.Rank(), err))
	}
	return b
}

func (e *Engine) mustBytes(r *codec.Reader) []byte {
	b, err := r.Bytes0()
	if err != nil {
		panic(fmt.Sprintf("container: rank %d: corrupt frame: %v", e.p.Rank(), err))
	}
	return b
}
