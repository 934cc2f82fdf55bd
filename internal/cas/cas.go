// Package cas is the engine's persistence spine: a content-addressed
// blob store keyed by the caller's content addresses (job IDs, trace
// IDs). Two implementations share one Store interface — MemStore for
// ephemeral engines and DiskStore for engines that must survive a
// restart — so the layers above (the engine's result cache and trace
// store) are written once against the interface and gain durability by
// configuration alone.
//
// A store only stores. It never runs a caller's computation: the
// engine computes a missing value under its own single-flight and
// hands the finished blob to PutBehind, which returns before the write
// lands and serves the blob from a pending overlay until it does.
//
// Keys are the addresses the engine already computes ("job-<hex>",
// "trace-<hex>"); values are opaque byte blobs. The store does not
// interpret blobs, but the DiskStore frames each one with a checksum so
// bit rot is detected at read time and quarantined instead of served.
package cas

import (
	"errors"
	"fmt"
)

// Store errors. Get and Delete report an absent key as ErrNotFound;
// corruption detected by a disk store is folded into ErrNotFound too
// (the blob is quarantined and the caller re-derives the value), with
// the event visible in Metrics.Corruptions.
var (
	ErrNotFound = errors.New("cas: not found")
	ErrClosed   = errors.New("cas: store closed")
	ErrBadKey   = errors.New("cas: bad key")
)

// Stat describes one stored blob, as List reports it. Size is the
// payload length (what Get returns), not the on-disk framing.
type Stat struct {
	Key  string
	Size int64
}

// Metrics is a point-in-time snapshot of a store's counters. Entries
// and Bytes are gauges; the rest are monotonic.
type Metrics struct {
	// Gets counts Get and GetBlob calls; Hits counts the ones that
	// returned a blob.
	Gets uint64
	Hits uint64
	// Puts counts blobs written; PutFailures counts PutBehind writes
	// that failed in the background, group-commit fsyncs included (the
	// caller had already moved on, so this is the only trace such a
	// failure leaves).
	Puts        uint64
	PutFailures uint64
	Deletes     uint64
	// Evictions counts blobs dropped by the capacity bound (oldest
	// first); Corruptions counts blobs quarantined as unreadable.
	Evictions   uint64
	Corruptions uint64
	Entries     int
	Bytes       int64
}

// Limits bounds a store's capacity. A zero MaxEntries means unlimited.
// When a Put would exceed it, the oldest blobs (by insertion, see
// Store.Put) are evicted until it fits; the blob being put is never the
// victim.
type Limits struct {
	MaxEntries int
}

// aged is one insertion in a store's age order: the key and the entry
// it inserted. It is live while the key still maps to that entry, so a
// key deleted and put again is aged from the new put, and its earlier
// insertion is a tombstone that List and eviction skip.
type aged[E any] struct {
	key string
	e   *E
}

func (a aged[E]) live(m map[string]*E) bool { return m[a.key] == a.e }

// OpObserver receives the wall-clock latency of each store operation.
// op is "get" or "put"; seconds is the operation's duration. Both
// built-in stores expose SetObserver(OpObserver); install the observer
// before the store is shared across goroutines (the engine does so at
// construction). A nil observer costs one nil check per operation.
type OpObserver func(op string, seconds float64)

// Store is a keyed blob store. Implementations are safe for concurrent
// use. Callers must not modify a blob returned by Get, nor a blob after
// passing it to Put or PutBehind (stores may retain or return internal
// slices to keep the memory path copy-free).
type Store interface {
	// Get returns the blob for key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Put stores blob under key, overwriting any previous value (equal
	// keys are assumed to address equal content, so an overwrite is a
	// no-op semantically). An overwrite keeps the key's age; a key put
	// after its deletion is aged from that put.
	Put(key string, blob []byte) error
	// PutBehind is Put behind the caller: it returns once the blob is
	// queued, and the write lands in the background. The blob is never
	// invisible in the interim — Get serves it from a pending overlay
	// until the write lands — but List and Metrics see only landed
	// blobs. A background write that fails is counted in
	// Metrics.PutFailures and otherwise dropped.
	PutBehind(key string, blob []byte) error
	// Drain blocks until every PutBehind write has landed. Close drains
	// first, so a reopened store holds everything a closed one was
	// given.
	Drain()
	// Delete removes key, or returns ErrNotFound.
	Delete(key string) error
	// List snapshots the resident blobs, oldest first (eviction order).
	List() ([]Stat, error)
	// Metrics snapshots the counters.
	Metrics() Metrics
	// Close releases the store. Calls after Close fail with ErrClosed.
	Close() error
}

// maxKeyLen bounds key length; with the ".blob" suffix this stays well
// under every filesystem's name limit.
const maxKeyLen = 200

// checkKey admits exactly the addresses the engine mints — ASCII
// letters, digits, '.', '_', '-' — and nothing that could traverse or
// hide in a directory listing (separators, a leading dot).
func checkKey(key string) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("%w: length %d outside [1,%d]", ErrBadKey, len(key), maxKeyLen)
	}
	if key[0] == '.' {
		return fmt.Errorf("%w: %q starts with a dot", ErrBadKey, key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: %q contains byte %#x", ErrBadKey, key, c)
		}
	}
	return nil
}
