package cas

import (
	"sync"
	"sync/atomic"
	"time"
)

// MemStore is the in-process Store: blobs live in a map, age is
// insertion order, nothing survives the process. It backs memory-only
// engines so the layers above run one code path whether or not a data
// directory is configured.
type MemStore struct {
	limits Limits
	wb     writeBehind
	obs    OpObserver

	mu     sync.Mutex
	m      map[string]*memEntry
	order  []aged[memEntry] // insertion order with tombstones, compacted lazily
	dead   int              // tombstones in order (keys deleted or evicted)
	closed bool
	bytes  int64

	gets, hits, puts, putFailures, deletes, evictions atomic.Uint64
}

// memEntry holds one blob; an insertion in order whose entry the map no
// longer holds is a tombstone left by delete/eviction, compacted lazily.
type memEntry struct {
	blob []byte
}

// NewMem builds an in-memory store.
func NewMem(limits Limits) *MemStore {
	return &MemStore{limits: limits, m: make(map[string]*memEntry)}
}

// SetObserver installs the per-operation latency observer. Install it
// before the store is shared across goroutines.
func (s *MemStore) SetObserver(fn OpObserver) { s.obs = fn }

// Get implements Store. The returned blob is the stored slice; callers
// must not modify it.
func (s *MemStore) Get(key string) ([]byte, error) {
	if s.obs != nil {
		start := time.Now()
		defer func() { s.obs("get", time.Since(start).Seconds()) }()
	}
	s.gets.Add(1)
	if err := checkKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	e, ok := s.m[key]
	if !ok {
		// A blob put behind whose write has not landed yet is served
		// from the pending overlay, so it is never invisible to readers.
		if blob, pok := s.wb.pendingBlob(key); pok {
			s.hits.Add(1)
			return blob, nil
		}
		return nil, ErrNotFound
	}
	s.hits.Add(1)
	return e.blob, nil
}

// Put implements Store. The blob is copied, so the caller may reuse its
// buffer.
func (s *MemStore) Put(key string, blob []byte) error {
	if s.obs != nil {
		start := time.Now()
		defer func() { s.obs("put", time.Since(start).Seconds()) }()
	}
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cp := append([]byte(nil), blob...)
	if e, ok := s.m[key]; ok {
		s.bytes += int64(len(cp)) - int64(len(e.blob))
		e.blob = cp
	} else {
		e := &memEntry{blob: cp}
		s.m[key] = e
		s.order = append(s.order, aged[memEntry]{key, e})
		s.bytes += int64(len(cp))
	}
	s.puts.Add(1)
	s.evictLocked(key)
	return nil
}

// evictLocked drops the oldest blobs until the limit holds, shielding
// keep (the key just written).
func (s *MemStore) evictLocked(keep string) {
	limit := s.limits.MaxEntries
	for i := 0; limit > 0 && len(s.m) > limit && i < len(s.order); i++ {
		a := s.order[i]
		if !a.live(s.m) || a.key == keep {
			continue
		}
		s.bytes -= int64(len(a.e.blob))
		a.e.blob = nil // its tombstone outlives it in order
		delete(s.m, a.key)
		s.dead++
		s.evictions.Add(1)
	}
	s.compactLocked()
}

// compactLocked rewrites order without its tombstones once they
// outnumber the live set — a tombstone count, not a map probe per
// element, decides, so a delete-heavy workload (a result cache reset
// drops every key) cannot build an ever-growing dead prefix that every
// later compaction rescans.
func (s *MemStore) compactLocked() {
	if s.dead <= len(s.m)+1 {
		return
	}
	live := s.order[:0]
	for _, a := range s.order {
		if a.live(s.m) {
			live = append(live, a)
		}
	}
	s.order = live
	s.dead = 0
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.m[key]
	if !ok {
		return ErrNotFound
	}
	s.bytes -= int64(len(e.blob))
	e.blob = nil // its tombstone outlives it in order
	delete(s.m, key)
	s.dead++
	s.deletes.Add(1)
	s.compactLocked()
	return nil
}

// List implements Store: resident blobs, oldest first.
func (s *MemStore) List() ([]Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]Stat, 0, len(s.m))
	for _, a := range s.order {
		if a.live(s.m) {
			out = append(out, Stat{Key: a.key, Size: int64(len(a.e.blob))})
		}
	}
	return out, nil
}

// PutBehind implements Store: the background write is Put.
func (s *MemStore) PutBehind(key string, blob []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return s.wb.put(key, blob, s.Put, &s.putFailures)
}

// Metrics implements Store.
func (s *MemStore) Metrics() Metrics {
	s.mu.Lock()
	entries, bytes := len(s.m), s.bytes
	s.mu.Unlock()
	return Metrics{
		Gets:        s.gets.Load(),
		Hits:        s.hits.Load(),
		Puts:        s.puts.Load(),
		PutFailures: s.putFailures.Load(),
		Deletes:     s.deletes.Load(),
		Evictions:   s.evictions.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// Drain implements Store.
func (s *MemStore) Drain() { s.wb.drain() }

// Close implements Store: outstanding PutBehind writes are drained,
// then the map is released; later calls fail.
func (s *MemStore) Close() error {
	s.wb.close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.m = nil
	s.order = nil
	s.bytes = 0
	return nil
}
