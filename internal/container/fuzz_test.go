package container

import (
	"bytes"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
)

// FuzzContainerCodecRoundTrip pins the engine's frame layout: every
// operation encoded the way the async ops encode it must decode — with
// the exact helper sequence handle uses — back to the same fields, with
// nothing left over. The opcode selector maps the fuzzer's byte onto the
// six real opcodes so every arm stays covered no matter what bytes the
// fuzzer mutates toward.
func FuzzContainerCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0), byte(0), []byte("key"), []byte("value"), uint64(1), uint64(0))
	f.Add(uint64(1), byte(1), []byte(""), []byte(""), uint64(0), uint64(0))
	f.Add(uint64(2), byte(2), []byte("k"), []byte{}, uint64(1<<40), uint64(3))
	f.Add(uint64(300), byte(3), bytes.Repeat([]byte("x"), 300), []byte{0, 1, 2}, uint64(9), uint64(12))
	f.Add(uint64(1<<50), byte(4), []byte{0xff}, bytes.Repeat([]byte{0}, 64), uint64(7), uint64(1<<33))
	f.Add(uint64(5), byte(5), []byte(""), []byte("reply"), uint64(0), uint64(1<<20))
	f.Fuzz(func(t *testing.T, cid uint64, opSel byte, key, val []byte, a, b uint64) {
		op := opInsert + opSel%6
		w := codec.NewWriter(64)
		w.Uvarint(cid)
		w.Byte(op)
		switch op {
		case opInsert:
			w.Bytes0(key)
			w.Bytes0(val)
		case opErase:
			w.Bytes0(key)
		case opAdd:
			w.Uvarint(a) // delta
			w.Bytes0(key)
		case opVisit:
			w.Uvarint(a) // vid
			w.Bytes0(key)
			w.Bytes0(val) // arg
		case opFetch:
			w.Uvarint(a) // vid
			w.Uvarint(b) // fid
			w.Uvarint(uint64(machine.Rank(b % 1024)))
			w.Bytes0(key)
			w.Bytes0(val) // arg
		case opReply:
			w.Uvarint(b)  // fid
			w.Bytes0(val) // the fetcher's output, opaque to the engine
		}
		frame := w.Bytes()

		r := codec.NewReader(frame)
		mustU := func() uint64 {
			v, err := r.Uvarint()
			if err != nil {
				t.Fatalf("uvarint: %v (frame %x)", err, frame)
			}
			return v
		}
		mustB := func() []byte {
			v, err := r.Bytes0()
			if err != nil {
				t.Fatalf("bytes0: %v (frame %x)", err, frame)
			}
			return v
		}
		if got := mustU(); got != cid {
			t.Fatalf("cid %d, want %d", got, cid)
		}
		gotOp, err := r.Byte()
		if err != nil || gotOp != op {
			t.Fatalf("op %d (err %v), want %d", gotOp, err, op)
		}
		check := func(name string, got, want []byte) {
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %x, want %x", name, got, want)
			}
		}
		switch op {
		case opInsert:
			check("key", mustB(), key)
			check("val", mustB(), val)
		case opErase:
			check("key", mustB(), key)
		case opAdd:
			if got := mustU(); got != a {
				t.Fatalf("delta %d, want %d", got, a)
			}
			check("key", mustB(), key)
		case opVisit:
			if got := mustU(); got != a {
				t.Fatalf("vid %d, want %d", got, a)
			}
			check("key", mustB(), key)
			check("arg", mustB(), val)
		case opFetch:
			if got := mustU(); got != a {
				t.Fatalf("vid %d, want %d", got, a)
			}
			if got := mustU(); got != b {
				t.Fatalf("fid %d, want %d", got, b)
			}
			if got := mustU(); got != b%1024 {
				t.Fatalf("caller %d, want %d", got, b%1024)
			}
			check("key", mustB(), key)
			check("arg", mustB(), val)
		case opReply:
			if got := mustU(); got != b {
				t.Fatalf("reply fid %d, want %d", got, b)
			}
			// handle hands the callback the undecoded tail as a view.
			tail := codec.NewWriter(16)
			tail.Bytes0(val)
			check("reply", frame[r.Offset():], tail.Bytes())
			mustB()
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d trailing bytes after full decode of op %d", r.Remaining(), op)
		}
	})
}
