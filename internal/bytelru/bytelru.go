// Package bytelru is the byte-budgeted LRU with single-flight builds that
// backs every value store: the feature-matrix cache (internal/featcache),
// the trained-model cache (forecast.Context.ModelCache) and the
// registry's decoded-artifact cache. Callers contribute their key/value
// types and domain docs; the eviction and single-flight concurrency logic
// lives only here.
package bytelru

import (
	"container/list"
	"sync"
)

// Sized is the value constraint: anything cached must report its in-memory
// footprint for byte budgeting.
type Sized interface {
	Bytes() int64
}

// Stats is a point-in-time cache counter snapshot. Callers that arrive
// while another goroutine is building the same key share that build and
// count as neither hit nor miss.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Oversize counts built values too large to cache at all.
	Oversize uint64
	// Waits counts callers that joined another goroutine's in-flight build
	// of the same key (the single-flight path).
	Waits    uint64
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// Meter is a cache's counter block: the counters, the resident bytes and
// the entry count. It is a separate object from the cache so that metrics
// can hold it without holding the cache, whose entries then stay
// collectable once the cache itself is dropped.
type Meter struct {
	mu    sync.Mutex // also guards the owning cache's entries
	stats Stats
}

// Stats returns a snapshot of the counters.
func (m *Meter) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Cache is a byte-budgeted LRU with single-flight builds. All methods are
// safe for concurrent use.
type Cache[K comparable, V Sized] struct {
	m        *Meter     // m.mu guards the fields below
	ll       *list.List // front = most recently used
	entries  map[K]*list.Element
	building map[K]*buildCall[V]
}

type lruEntry[K comparable, V Sized] struct {
	key K
	v   V
}

type buildCall[V Sized] struct {
	done chan struct{}
	v    V
	err  error
}

// New returns a cache bounded to maxBytes of value payload (<= 0 means
// unbounded).
func New[K comparable, V Sized](maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{
		m:        &Meter{stats: Stats{MaxBytes: maxBytes}},
		ll:       list.New(),
		entries:  map[K]*list.Element{},
		building: map[K]*buildCall[V]{},
	}
}

// MaxBytes returns the configured byte budget (<= 0 means unbounded).
func (c *Cache[K, V]) MaxBytes() int64 { return c.m.stats.MaxBytes }

// Meter returns the cache's counter block, which references no entry:
// register it, not the cache, with metrics that may outlive the cache.
func (c *Cache[K, V]) Meter() *Meter { return c.m }

// GetOrBuild returns the value for key, building it with build on a miss.
// Concurrent callers for the same key share one build (single flight): the
// first caller builds, the rest block and receive the same value. Build
// errors are not cached — the next caller retries.
func (c *Cache[K, V]) GetOrBuild(key K, build func() (V, error)) (V, error) {
	mu, s := &c.m.mu, &c.m.stats
	mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		s.Hits++
		v := el.Value.(*lruEntry[K, V]).v
		mu.Unlock()
		return v, nil
	}
	if call, ok := c.building[key]; ok {
		s.Waits++
		mu.Unlock()
		<-call.done
		return call.v, call.err
	}
	call := &buildCall[V]{done: make(chan struct{})}
	c.building[key] = call
	s.Misses++
	mu.Unlock()

	call.v, call.err = build()

	mu.Lock()
	delete(c.building, key)
	if call.err == nil {
		c.insert(key, call.v)
	}
	mu.Unlock()
	close(call.done)
	return call.v, call.err
}

// insert stores a freshly built value, evicting least-recently-used
// entries until the byte budget holds. A value larger than the whole
// budget is served but never stored. Callers hold c.m.mu.
func (c *Cache[K, V]) insert(key K, v V) {
	s := &c.m.stats
	if s.MaxBytes > 0 && v.Bytes() > s.MaxBytes {
		s.Oversize++
		return
	}
	c.entries[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, v: v})
	s.Bytes += v.Bytes()
	for s.MaxBytes > 0 && s.Bytes > s.MaxBytes {
		back := c.ll.Back()
		victim := back.Value.(*lruEntry[K, V])
		c.ll.Remove(back)
		delete(c.entries, victim.key)
		s.Bytes -= victim.v.Bytes()
		s.Evictions++
	}
	s.Entries = len(c.entries)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats { return c.m.Stats() }

// Len returns the number of cached values.
func (c *Cache[K, V]) Len() int { return c.Stats().Entries }
