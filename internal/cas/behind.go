package cas

import (
	"sync"
	"sync/atomic"
)

// writeBehind is PutBehind's machinery, shared by both stores: the
// caller returns as soon as the blob is queued, and the store write
// runs in a background goroutine. Until the write lands the blob is
// held in the pending overlay, which the stores' read paths consult,
// so a value put behind is never invisible — a reader sees it from the
// overlay or from the store, with no gap between. drain blocks until
// every outstanding write has settled; stores call it from Close (so a
// reopened store holds everything a closed one was given) and expose
// it as Drain.
type writeBehind struct {
	mu sync.Mutex
	// pending maps keys to blobs whose background write has not landed
	// yet; writes counts outstanding writes (same-key overlaps count
	// individually, the map entry dedups).
	pending map[string][]byte
	writes  int
	closed  bool
	idle    *sync.Cond // signals writes reaching zero; lazily built
}

// put publishes blob in the overlay and starts its background write.
// A failed write must not fail the caller — the value exists, it is
// just not stored — so it is counted in failures and otherwise
// dropped. After close, put refuses with ErrClosed.
func (w *writeBehind) put(key string, blob []byte, write func(string, []byte) error, failures *atomic.Uint64) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.pending == nil {
		w.pending = make(map[string][]byte)
	}
	w.pending[key] = blob
	w.writes++
	w.mu.Unlock()
	go w.finish(key, blob, write, failures)
	return nil
}

// finish runs one background write to completion and retires its
// overlay entry. Removing the entry when an overlapping write of the
// same key is still outstanding is harmless: equal keys address equal
// content, so whichever write landed already serves the same bytes.
func (w *writeBehind) finish(key string, blob []byte, write func(string, []byte) error, failures *atomic.Uint64) {
	if err := write(key, blob); err != nil {
		failures.Add(1)
	}
	w.mu.Lock()
	delete(w.pending, key)
	w.writes--
	if w.writes == 0 && w.idle != nil {
		w.idle.Broadcast()
	}
	w.mu.Unlock()
}

// pendingBlob returns the overlay blob for key, if a background write
// for it is still outstanding. Callers must not modify the returned
// slice.
func (w *writeBehind) pendingBlob(key string) ([]byte, bool) {
	w.mu.Lock()
	blob, ok := w.pending[key]
	w.mu.Unlock()
	return blob, ok
}

// drain blocks until every outstanding write has settled.
func (w *writeBehind) drain() {
	w.mu.Lock()
	for w.writes > 0 {
		if w.idle == nil {
			w.idle = sync.NewCond(&w.mu)
		}
		w.idle.Wait()
	}
	w.mu.Unlock()
}

// close refuses later puts, then drains the ones already queued.
func (w *writeBehind) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.drain()
}
