package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"nbticache/internal/cas"
)

// flight is the engine's one single-flight: the first caller of do for
// a key becomes the leader and runs its computation; callers arriving
// while it runs wait and share its outcome. Four users share it — the
// result cache (over a cas.Store), the run and generated-trace memos,
// and uploaded-trace admission — so the rules for leaders and waiters
// live here once:
//   - a failure is shared with the waiters already waiting, then
//     forgotten, so a later caller computes afresh;
//   - a panicking computation settles its waiters with an error, then
//     re-raises in the leader;
//   - a waiter whose leader was cancelled (the leader's context, not the
//     waiter's) takes over and computes itself, so cancelling one sweep
//     never fails an identical job submitted by another.
type flight[V any] struct {
	// memo keeps each successful value after its call settles, so later
	// callers share it too (simulation runs and generated traces).
	// Without it an entry lives only while its call is in flight, and
	// the caller's own store answers afterwards.
	memo bool

	mu    sync.Mutex
	calls map[string]*call[V]

	// misses counts leaders started; hits counts callers that shared
	// another's call, in flight or memoised.
	hits   atomic.Uint64
	misses atomic.Uint64
}

type call[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

func newFlight[V any](memo bool) *flight[V] {
	return &flight[V]{memo: memo, calls: make(map[string]*call[V])}
}

// do returns the value for key, computing it with fn unless a call for
// key is in flight or memoised. ctx bounds only the wait on another
// leader; the leader passes its own context down through fn.
func (f *flight[V]) do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	for {
		f.mu.Lock()
		c, ok := f.calls[key]
		if !ok {
			c = &call[V]{done: make(chan struct{})}
			f.calls[key] = c
			f.mu.Unlock()
			f.misses.Add(1)
			f.lead(key, c, fn)
			return c.val, c.err
		}
		f.mu.Unlock()
		f.hits.Add(1)
		select {
		case <-c.done:
			if isCtxErr(c.err) && ctx.Err() == nil {
				continue // leader cancelled, we weren't: take over
			}
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// lead runs fn as key's leader and settles c, even if fn panics. A
// failed call, and any call without memo, leaves the map before done
// closes, so a waiter that takes over finds no stale entry.
func (f *flight[V]) lead(key string, c *call[V], fn func() (V, error)) {
	defer func() {
		r := recover()
		if r != nil {
			c.err = fmt.Errorf("engine: computation panicked: %v", r)
		}
		if c.err != nil || !f.memo {
			f.mu.Lock()
			if f.calls[key] == c {
				delete(f.calls, key)
			}
			f.mu.Unlock()
		}
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
}

// forget drops every entry whose key starts with prefix ("" drops them
// all). A call still in flight settles its own waiters, but its value
// is not memoised, and later callers compute afresh.
func (f *flight[V]) forget(prefix string) {
	f.mu.Lock()
	for k := range f.calls {
		if strings.HasPrefix(k, prefix) {
			delete(f.calls, k)
		}
	}
	f.mu.Unlock()
}

// size returns the number of entries, memoised or in flight.
func (f *flight[V]) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// blobCodec converts between a typed value and its stored blob. decode
// receives the content address so it can verify the blob answers for it.
type blobCodec[V any] struct {
	encode func(V) ([]byte, error)
	decode func(key string, blob []byte) (V, error)
}

// blobCache is the job-result cache: a typed read-through cache over a
// cas.Store (memory or disk), with values crossing the boundary through
// the versioned binary codec (codec.go). A miss is computed under a
// non-memo flight, encoded, and handed to the store's PutBehind before
// the flight settles, so a caller arriving afterwards reads it from the
// store. Each caller gets a private value — the leader its own
// computation, every other caller a fresh decode of the shared blob — so
// callers can annotate results without contaminating the cache or each
// other.
type blobCache[V any] struct {
	store cas.Store
	codec blobCodec[V]
	fl    *flight[[]byte]

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
}

func newBlobCache[V any](store cas.Store, codec blobCodec[V]) *blobCache[V] {
	return &blobCache[V]{store: store, codec: codec, fl: newFlight[[]byte](false)}
}

// do returns the value for key, computing it with fn if absent. cached
// reports whether the value came from the store or a concurrent leader
// rather than from this call's own fn. A stored blob that fails to
// decode is dropped and recomputed — typed-layer corruption degrades to
// a miss exactly like store-layer corruption.
func (c *blobCache[V]) do(ctx context.Context, key string, fn func() (V, error)) (val V, cached bool, err error) {
	var zero V
	for attempt := 0; ; attempt++ {
		var own V
		var computed bool
		blob, err := c.fl.do(ctx, key, func() ([]byte, error) {
			// Read through as the leader, so callers arriving while the
			// store is read share that read instead of repeating it.
			blob, err := c.store.Get(key)
			if !errors.Is(err, cas.ErrNotFound) {
				// A hit, or a real store failure (closed, I/O): never
				// recompute over a broken backing store.
				return blob, err
			}
			v, err := fn()
			if err != nil {
				return nil, err
			}
			if blob, err = c.codec.encode(v); err != nil {
				return nil, err
			}
			// The blob is readable from the store before the flight
			// settles, so no caller misses in the gap and recomputes. A
			// store that cannot take it (closing) leaves the value
			// served but not stored.
			_ = c.store.PutBehind(key, blob)
			own, computed = v, true
			return blob, nil
		})
		if err != nil {
			return zero, false, err
		}
		if computed {
			c.misses.Add(1)
			return own, false, nil
		}
		v, derr := c.codec.decode(key, blob)
		if derr != nil {
			c.corrupt.Add(1)
			_ = c.store.Delete(key)
			if attempt == 0 {
				continue // recompute over the dropped blob
			}
			return zero, false, derr
		}
		c.hits.Add(1)
		return v, true, nil
	}
}

// get returns the completed value for key, if present and readable.
// In-flight computations are reported as absent: get never blocks.
func (c *blobCache[V]) get(key string) (V, bool) {
	var zero V
	blob, err := c.store.Get(key)
	if err != nil {
		return zero, false
	}
	v, err := c.codec.decode(key, blob)
	if err != nil {
		c.corrupt.Add(1)
		_ = c.store.Delete(key)
		return zero, false
	}
	return v, true
}

// put stores a value directly, bypassing the flight — the import path
// for values computed elsewhere (a replica write-through).
func (c *blobCache[V]) put(key string, v V) error {
	blob, err := c.codec.encode(v)
	if err != nil {
		return err
	}
	return c.store.Put(key, blob)
}

// reset drops every stored value. In-flight computations are
// unaffected; their results land in the store when they settle.
// Outstanding PutBehind writes are drained first: a write landing after
// the deletes below would silently resurrect a value the caller meant
// to drop (benchmarks reset between iterations to force re-simulation —
// a resurrected result would turn them into cache reads).
func (c *blobCache[V]) reset() {
	c.store.Drain()
	list, err := c.store.List()
	if err != nil {
		return
	}
	for _, st := range list {
		_ = c.store.Delete(st.Key)
	}
}

// size returns the number of stored values.
func (c *blobCache[V]) size() int {
	return c.store.Metrics().Entries
}
