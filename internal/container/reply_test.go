package container

import (
	"fmt"
	"strings"
	"testing"

	"ygm/internal/codec"
	"ygm/internal/machine"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// Fetch replies are ordinary mailbox records (opReply), so their
// delivery is covered by the mailbox's termination detection. These
// tests pin the resulting contract on every exchange variant under both
// a direct and a routed scheme.

var replySchemes = []machine.Scheme{machine.NoRoute, machine.NLNR}

// forEachReplyCell runs body as a subtest for every exchange × scheme
// cell on a 2×2 world.
func forEachReplyCell(t *testing.T, seed int64, body func(p *transport.Proc, e *Engine) error) {
	for _, v := range variants {
		for _, s := range replySchemes {
			t.Run(v.name+"/"+s.String(), func(t *testing.T) {
				runWorld(t, 2, 2, seed, func(p *transport.Proc) error {
					return body(p, NewEngine(p, v.opt, ygm.WithScheme(s), ygm.WithCapacity(32)))
				})
			})
		}
	}
}

// TestFetchReplyChainFiresOnce: a callback issues a fetch whose callback
// issues another (depth 3). Every callback of every chain must have run
// exactly once when a single Barrier returns.
func TestFetchReplyChainFiresOnce(t *testing.T) {
	const chains, depth = 24, 3
	forEachReplyCell(t, 31, func(p *transport.Proc, e *Engine) error {
		c := NewCounter(e, nil)
		count := c.RegisterFetcher(func(c *Counter, k, arg []byte, reply *codec.Writer) {
			reply.Uvarint(c.LocalCount(k))
		})
		var fired [chains][depth]int
		var step func(chain, level int)
		step = func(chain, level int) {
			c.AsyncVisitFetch(count, key(chain*depth+level), nil, func(reply []byte) {
				fired[chain][level]++
				if level+1 < depth {
					step(chain, level+1)
				}
			})
		}
		for i := 0; i < chains; i++ {
			step(i, 0)
		}
		e.Barrier()
		for i := range fired {
			for level, n := range fired[i] {
				if n != 1 {
					return fmt.Errorf("rank %d: chain %d level %d fired %d times by the end of Barrier, want 1", p.Rank(), i, level, n)
				}
			}
		}
		return nil
	})
}

// TestFetchReplySelfOwnedRunsInline: a fetch of a key this rank owns
// delivers the request and then the reply synchronously, so its
// callback has run before AsyncVisitFetch returns.
func TestFetchReplySelfOwnedRunsInline(t *testing.T) {
	forEachReplyCell(t, 32, func(p *transport.Proc, e *Engine) error {
		m := NewMap(e, nil)
		get := m.RegisterFetcher(func(m *Map, k, arg []byte, reply *codec.Writer) {
			reply.Bytes0(k)
		})
		var own []byte
		for i := 0; own == nil; i++ {
			if k := key(i); m.Owner(k) == p.Rank() {
				own = k
			}
		}
		ran := false
		m.AsyncVisitFetch(get, own, nil, func(reply []byte) {
			got, err := codec.NewReader(reply).Bytes0()
			if err != nil || string(got) != string(own) {
				panic(fmt.Sprintf("self fetch of %q replied %q (%v)", own, got, err))
			}
			ran = true
		})
		if !ran {
			return fmt.Errorf("rank %d: self-owned fetch callback did not run inside the issuing call", p.Rank())
		}
		e.Barrier()
		return nil
	})
}

// TestFetchReplyBarrierPanicsOnPending: a callback still registered once
// the mailbox is quiescent means a reply was lost; Barrier must say so
// instead of returning. Every rank plants the phantom, so every rank
// completes WaitEmpty before panicking and the world stays usable.
func TestFetchReplyBarrierPanicsOnPending(t *testing.T) {
	forEachReplyCell(t, 33, func(p *transport.Proc, e *Engine) error {
		const phantom = ^uint64(0)
		e.fetches[phantom] = func([]byte) {}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			e.Barrier()
			return ""
		}()
		if !strings.Contains(msg, "1 fetch callbacks pending after quiescence") {
			return fmt.Errorf("rank %d: Barrier with a pending fetch: recovered %q, want a pending-fetch panic", p.Rank(), msg)
		}
		delete(e.fetches, phantom)
		e.Barrier()
		return nil
	})
}
