package blockincallbackfixture

import (
	"ygm/internal/codec"
	"ygm/internal/container"
)

// containerBlocks: fetch callbacks, visitors and fetchers all run inside
// mailbox delivery, so the engine barrier and the collective container
// queries must not be reachable from them.
func containerBlocks(e *container.Engine, c *container.Counter, m *container.Map) {
	c.AsyncVisitFetch(0, []byte("k"), nil, func(reply []byte) {
		_ = c.Size() // want `Size is a collective container query`
	})
	m.RegisterVisitor(func(m *container.Map, key, arg []byte) {
		e.Barrier() // want `Barrier waits for global container quiescence`
	})
	c.RegisterFetcher(tallyFetcher)
}

func tallyFetcher(c *container.Counter, key, arg []byte, reply *codec.Writer) {
	_ = c.TopK(1) // want `TopK is a collective container query`
}

// containerClean: chaining asynchronous operations from the same
// callbacks is the supported pattern.
func containerClean(c *container.Counter, s *container.Set) {
	count := c.RegisterFetcher(func(c *container.Counter, key, arg []byte, reply *codec.Writer) {
		reply.Uvarint(c.LocalCount(key))
	})
	s.RegisterVisitor(func(s *container.Set, key, arg []byte) {
		c.AsyncIncr(key)
	})
	c.AsyncVisitFetch(count, []byte("k"), nil, func(reply []byte) {
		c.AsyncVisitFetch(count, reply, nil, func([]byte) {})
		s.AsyncInsert(reply)
	})
}
