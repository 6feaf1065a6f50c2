package main

import (
	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/ygm"
)

// chunkRecords is how many records are encoded in one codec batch
// before they are sent one by one.
const chunkRecords = 64

// decodeEvery: in a traced run, one encoded batch in decodeEvery is also
// decoded under a codec.decode span, which measures the record decode
// cost in batches without timing single decodes inside handlers.
const decodeEvery = 16

// outbox batches a rank's records: it encodes a chunk of records (each
// a fixed number of uvarints) under one codec.encode span, then sends
// them one by one through the mailbox. Untraced runs take the same path
// with the spans off.
type outbox struct {
	mb      ygm.Box
	t       *rankTrace
	arity   int
	w       *codec.Writer
	r       *codec.Reader
	n       int
	batches int
	dst     [chunkRecords]machine.Rank
	end     [chunkRecords]int
	fields  [chunkRecords][3]uint64
}

func (o *outbox) init(mb ygm.Box, t *rankTrace, arity int) {
	o.mb, o.t, o.arity = mb, t, arity
	o.w = codec.NewWriter(chunkRecords * arity * 10)
	o.r = codec.NewReader(nil)
}

// add queues one record for dst; only the first arity values are sent.
func (o *outbox) add(dst machine.Rank, a, b, c uint64) {
	o.dst[o.n] = dst
	o.fields[o.n] = [3]uint64{a, b, c}
	o.n++
	if o.n == chunkRecords {
		o.flush()
	}
}

// flush encodes and sends every queued record.
func (o *outbox) flush() {
	if o.n == 0 {
		return
	}
	t := o.t
	t.begin(kEncode)
	o.w.Reset()
	for i := 0; i < o.n; i++ {
		for _, v := range o.fields[i][:o.arity] {
			o.w.Uvarint(v)
		}
		o.end[i] = o.w.Len()
	}
	t.endN(o.n)
	buf := o.w.Bytes()
	if t != nil && o.batches%decodeEvery == 0 {
		t.begin(kDecode)
		o.r.Reset(buf)
		for o.r.Remaining() > 0 {
			if _, err := o.r.Uvarint(); err != nil {
				panic("ygmperf: record batch does not decode: " + err.Error())
			}
		}
		o.r.Reset(nil)
		t.endN(o.n)
	}
	o.batches++
	start := 0
	for i := 0; i < o.n; i++ {
		t.begin(kSend)
		o.mb.Send(o.dst[i], buf[start:o.end[i]])
		t.end()
		start = o.end[i]
	}
	o.n = 0
}
