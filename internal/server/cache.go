// Package server implements the kwmds serve subsystem: an HTTP JSON
// service that runs any pipeline configuration on posted or preloaded
// graphs through a bounded worker pool, with an LRU result cache keyed on
// (graph digest, options) so repeated queries on the same topology are
// answered without recomputation.
package server

import (
	"container/list"
	"context"
	"strings"
	"sync"
)

// resultCache is a thread-safe LRU of solve results with single-flight
// computation: concurrent misses on the same key run the solver once and
// share the result. Errors are never cached.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *cacheEntry
	items    map[string]*list.Element
	inflight map[string]*inflightCall

	hits   int64
	misses int64
}

type cacheEntry struct {
	key string
	val *solveResult
}

// inflightCall is one running computation with a refcount of interested
// requests. The cancel channel closes when the LAST waiter abandons the
// call (its request context ended) — one impatient client among several
// never kills a solve the others still want; only a unanimous walkout does.
type inflightCall struct {
	done     chan struct{}
	cancel   chan struct{}
	waiters  int  // guarded by resultCache.mu
	canceled bool // guarded by resultCache.mu
	val      *solveResult
	err      error
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*inflightCall),
	}
}

// getOrCompute returns the cached response for key, or runs compute once —
// also on behalf of any concurrent callers with the same key — and caches
// its result. hit reports whether the caller got a previously computed
// response (including one computed by the call it piggybacked on).
//
// ctx is the caller's interest in the answer, not the computation's
// lifetime: a caller whose ctx ends stops waiting and gets ctx.Err(), but
// the computation keeps running as long as ANY caller still waits. compute
// receives a cancel channel that closes only when every interested caller
// has walked out — wire it to the solver's Options.Cancel and an abandoned
// solve stops burning the worker pool. Canceled computations return errors
// and are never cached.
func (c *resultCache) getOrCompute(ctx context.Context, key string, compute func(cancel <-chan struct{}) (*solveResult, error)) (val *solveResult, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).val, true, nil
	}
	if call, ok := c.inflight[key]; ok && !call.canceled {
		call.waiters++
		c.hits++
		c.mu.Unlock()
		return c.wait(ctx, call, true)
	}
	// A caller that has already gone starts nothing: the run would answer
	// no one, and it could finish, and be cached, before the caller's
	// walk-out closed its cancel channel.
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	// A canceled in-flight call may still be winding down under this key;
	// the new call replaces it in the map (the old goroutine's cleanup
	// checks identity before deleting).
	call := &inflightCall{done: make(chan struct{}), cancel: make(chan struct{}), waiters: 1}
	c.inflight[key] = call
	c.misses++
	c.mu.Unlock()

	go func() {
		v, cerr := compute(call.cancel)
		c.mu.Lock()
		if c.inflight[key] == call {
			delete(c.inflight, key)
		}
		if cerr == nil && c.capacity > 0 {
			if _, dup := c.items[key]; !dup {
				c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: v})
				for c.order.Len() > c.capacity {
					oldest := c.order.Back()
					c.order.Remove(oldest)
					delete(c.items, oldest.Value.(*cacheEntry).key)
				}
			}
		}
		c.mu.Unlock()
		call.val, call.err = v, cerr
		close(call.done)
	}()
	return c.wait(ctx, call, false)
}

// wait blocks until the call completes or the caller's ctx ends. The last
// waiter to leave closes the call's cancel channel.
func (c *resultCache) wait(ctx context.Context, call *inflightCall, hit bool) (*solveResult, bool, error) {
	select {
	case <-call.done:
		return call.val, hit, call.err
	case <-ctx.Done():
		c.mu.Lock()
		call.waiters--
		if call.waiters == 0 && !call.canceled {
			call.canceled = true
			close(call.cancel)
		}
		c.mu.Unlock()
		return nil, false, ctx.Err()
	}
}

// invalidateDigest drops every cached entry keyed under the given topology
// digest (keys are "digest|…") and returns how many were removed. A
// mutation calls it with the pre-mutation digest: the new digest can never
// collide with old keys, so this is purely about not letting a mutated
// graph's dead results squat in the LRU. In-flight computations for the
// old digest are left alone — they are keyed by that digest and therefore
// still answer exactly the epoch their callers pinned.
func (c *resultCache) invalidateDigest(digest string) int {
	prefix := digest + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); strings.HasPrefix(e.key, prefix) {
			c.order.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// stats returns the entry count and cumulative hit/miss counters.
func (c *resultCache) stats() (entries int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}
