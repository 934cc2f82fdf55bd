package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"nbticache/internal/cache"
	"nbticache/internal/cas"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// The trace store holds uploaded (real) address traces, content-addressed
// exactly like job results: the ID is a hash of the canonical binary
// encoding, so the same trace uploaded twice — by one client or by two —
// is stored and characterised once, and a job referencing it by ID is
// reproducible anywhere the bytes are. Every admitted trace is measured
// (workload.MeasureSignature) on the way in, so sweeps consume
// pre-characterised workloads.
//
// The resident map is the working set; when the engine has a data
// directory, admissions write through to a cas.Store (the signature and
// canonical encoding, see codec.go) and the store is reloaded on the
// next start, so uploads survive restarts without re-measuring.

// TraceInfo is the stored trace's public view: identity, shape, and the
// bank-idleness signature measured at admission.
type TraceInfo struct {
	// ID is the trace's content address ("trace-<hex>").
	ID string `json:"id"`
	// Name is the trace's self-declared name (codec-validated).
	Name string `json:"name,omitempty"`
	// Accesses and Cycles describe the shape.
	Accesses int    `json:"accesses"`
	Cycles   uint64 `json:"cycles"`
	// Density is accesses per cycle over the span.
	Density float64 `json:"density"`
	// Bytes is the canonical binary encoding's size.
	Bytes int64 `json:"bytes"`
	// Signature is the Table-I style per-bank idleness characterisation,
	// measured at the paper's default geometry at admission.
	Signature *workload.Signature `json:"signature"`
}

// storedTrace holds a resident uploaded trace, a private copy in the
// batch kernel's native column layout.
type storedTrace struct {
	info TraceInfo
	tr   *trace.Trace
}

// newStoredTrace wraps a validated trace under its content address,
// canonical size and admission-time signature.
func newStoredTrace(id string, size int64, sig *workload.Signature, tr *trace.Trace) *storedTrace {
	return &storedTrace{
		info: TraceInfo{
			ID:        id,
			Name:      tr.Name,
			Accesses:  tr.Len(),
			Cycles:    tr.Span,
			Density:   tr.Density(),
			Bytes:     size,
			Signature: sig,
		},
		tr: tr,
	}
}

// ErrTraceStoreFull is returned by AddTrace when admitting another
// trace would exceed the store's bound. Traces are immutable simulation
// inputs referenced by ID from job specs, so the store never evicts on
// its own (a silent eviction would turn running sweeps' references
// dangling); clients free slots explicitly via RemoveTrace.
var ErrTraceStoreFull = errors.New("engine: trace store full")

// traceStore is the engine's uploaded-trace registry: bounded, with
// single-flight admission so concurrent uploads of the same bytes
// measure the signature once, and with pin-aware removal so deleting a
// trace that an in-flight sweep references defers the removal until the
// sweep finishes instead of breaking its jobs.
type traceStore struct {
	mu  sync.Mutex
	m   map[string]*storedTrace
	max int
	// inflight marks IDs being measured right now; the channel closes
	// when admission settles (stored or failed).
	inflight map[string]chan struct{}
	// blobs is the persistent layer; nil means memory-only.
	blobs cas.Store
	// pins counts in-flight sweeps referencing each trace; condemned
	// marks traces removed while pinned — invisible to lookups and new
	// submissions, still resolvable by the pinned sweeps, reaped when
	// the last pin drops.
	pins      map[string]int
	condemned map[string]bool
	// corrupt counts persisted trace blobs that failed the typed decode
	// (the store's own checksum corruption is counted by the store).
	corrupt atomic.Uint64
}

func newTraceStore(max int, blobs cas.Store) *traceStore {
	return &traceStore{
		m:         make(map[string]*storedTrace),
		max:       max,
		inflight:  make(map[string]chan struct{}),
		blobs:     blobs,
		pins:      make(map[string]int),
		condemned: make(map[string]bool),
	}
}

// blobMapper is the zero-copy read capability a persistent layer may
// offer (cas.DiskStore does): the blob's bytes arrive as a released-
// when-done view — a file mapping on platforms that support it — so a
// warm start decodes trace columns straight from the page cache instead
// of through a full-frame heap copy. The capability is optional by type
// assertion; cas.Store itself stays unchanged.
type blobMapper interface {
	GetBlob(key string) (*cas.Blob, error)
}

// load warms the resident map from the persistent layer, oldest blob
// first, up to the admission bound (blobs past it stay on disk,
// unlisted, until slots free up and they are re-uploaded). Blobs that
// fail the typed decode — including any that is not NBTC — are deleted
// and counted; the store's own checksum layer has already quarantined
// anything it could detect.
func (s *traceStore) load() {
	if s.blobs == nil {
		return
	}
	list, err := s.blobs.List()
	if err != nil {
		return
	}
	mapper, _ := s.blobs.(blobMapper)
	for _, st := range list {
		if len(s.m) >= s.max {
			return
		}
		// Prefer the mapped read: the columnar decode copies everything it
		// keeps (columns are fresh slices, names fresh strings), so the
		// mapping is released the moment decode settles.
		var blob []byte
		var mapped *cas.Blob
		if mapper != nil {
			if mapped, err = mapper.GetBlob(st.Key); err == nil {
				blob = mapped.Bytes()
			}
		} else {
			blob, err = s.blobs.Get(st.Key)
		}
		if err != nil {
			continue // quarantined or vanished; counted by the store
		}
		entry, err := decodeTraceBlob(st.Key, blob)
		_ = mapped.Release()
		if err != nil {
			s.corrupt.Add(1)
			_ = s.blobs.Delete(st.Key)
			continue
		}
		s.m[st.Key] = entry
	}
}

// get resolves id for lookups and new submissions: condemned traces are
// already deleted from this point of view.
func (s *traceStore) get(id string) (*storedTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.condemned[id] {
		return nil, false
	}
	st, ok := s.m[id]
	return st, ok
}

// resolve resolves id for pinned simulation: a condemned trace is
// still served, because the caller's sweep pinned it before the
// removal landed. Unpinned paths (new submissions, direct RunJob,
// listings) use get, which treats condemned as gone.
func (s *traceStore) resolve(id string) (*storedTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[id]
	return st, ok
}

// admit resolves id to a stored trace, computing the entry with build
// at most once across concurrent callers. existed reports a hit on an
// already-resident entry. Re-admitting a condemned trace resurrects it:
// the bytes are identical by content address, so the pending removal is
// simply cancelled.
func (s *traceStore) admit(id string, build func() (*storedTrace, error)) (st *storedTrace, existed bool, err error) {
	for {
		s.mu.Lock()
		if st, ok := s.m[id]; ok {
			delete(s.condemned, id)
			s.mu.Unlock()
			return st, true, nil
		}
		if ch, busy := s.inflight[id]; busy {
			s.mu.Unlock()
			<-ch // another upload of the same bytes is measuring; share it
			continue
		}
		// In-flight admissions reserve capacity so a burst cannot
		// overshoot the bound.
		if len(s.m)+len(s.inflight) >= s.max {
			s.mu.Unlock()
			return nil, false, fmt.Errorf("%w: %d traces resident (remove some or raise the limit)", ErrTraceStoreFull, s.max)
		}
		ch := make(chan struct{})
		s.inflight[id] = ch
		s.mu.Unlock()

		var st *storedTrace
		var err error
		func() {
			// The cleanup must run even if build panics (a wedged
			// inflight entry would block every later upload of these
			// bytes forever and leak the capacity reservation); the
			// panic itself still propagates to the caller.
			defer func() {
				s.mu.Lock()
				delete(s.inflight, id)
				close(ch)
				if err == nil && st != nil {
					s.m[id] = st
				}
				s.mu.Unlock()
			}()
			st, err = build()
			if err == nil && s.blobs != nil {
				// Write-through: an admission that cannot be persisted
				// fails, rather than silently diverging from the next
				// restart's view of the store.
				blob, berr := encodeTraceBlob(st)
				if berr == nil {
					berr = s.blobs.Put(id, blob)
				}
				if berr != nil {
					st, err = nil, fmt.Errorf("engine: persisting trace %s: %w", id, berr)
				}
			}
		}()
		return st, false, err
	}
}

// pinAll atomically verifies that every id is resident (and not
// condemned) and pins them for the lifetime of one sweep: a concurrent
// RemoveTrace defers its removal until unpinAll instead of breaking the
// sweep's jobs. ids must be deduplicated by the caller.
func (s *traceStore) pinAll(ids []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if _, ok := s.m[id]; !ok || s.condemned[id] {
			return fmt.Errorf("engine: unknown trace %q (upload it first)", id)
		}
	}
	for _, id := range ids {
		s.pins[id]++
	}
	return nil
}

// unpinAll releases one sweep's pins, completing any removal deferred
// while the sweep was running.
func (s *traceStore) unpinAll(ids []string) {
	var reaped []string
	s.mu.Lock()
	for _, id := range ids {
		if s.pins[id]--; s.pins[id] > 0 {
			continue
		}
		delete(s.pins, id)
		if s.condemned[id] {
			s.reapLocked(id)
			reaped = append(reaped, id)
		}
	}
	s.mu.Unlock()
	s.deleteBlobs(reaped)
}

// reapLocked finishes a removal's in-memory half: the resident entry
// goes now; the persisted blob is the caller's to delete via
// deleteBlobs once the mutex is released. Blob deletion is disk I/O,
// and doing it under s.mu would stall every concurrent lookup on the
// filesystem (nbtivet lockedio, the PR 3 DiskStore lesson).
func (s *traceStore) reapLocked(id string) {
	delete(s.m, id)
	delete(s.condemned, id)
}

// deleteBlobs removes persisted blobs for already-reaped ids. Called
// without s.mu held: once an id has left s.m it is invisible to
// lookups and re-admission of the same content recreates the blob, so
// there is no ordering hazard.
func (s *traceStore) deleteBlobs(ids []string) {
	if s.blobs == nil {
		return
	}
	for _, id := range ids {
		_ = s.blobs.Delete(id)
	}
}

// remove drops a stored trace, freeing its admission slot. A pinned
// trace (referenced by an in-flight sweep) is condemned instead:
// immediately invisible to lookups and new submissions, still served to
// the sweeps already holding it, fully reaped when the last finishes.
func (s *traceStore) remove(id string) bool {
	s.mu.Lock()
	if _, ok := s.m[id]; !ok || s.condemned[id] {
		s.mu.Unlock()
		return false
	}
	if s.pins[id] > 0 {
		s.condemned[id] = true
		s.mu.Unlock()
		return true
	}
	s.reapLocked(id)
	s.mu.Unlock()
	s.deleteBlobs([]string{id})
	return true
}

func (s *traceStore) infos() []TraceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceInfo, 0, len(s.m))
	for id, st := range s.m {
		if s.condemned[id] {
			continue
		}
		out = append(out, st.info)
	}
	// The map walk above visits in random order; this listing is served
	// as JSON by the HTTP API, and two identical stores must render the
	// same bytes (nbtivet detmap).
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *traceStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m) - len(s.condemned)
}

// countingWriter counts bytes flowing into the content hash.
type countingWriter struct {
	h hash.Hash
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

// TraceContentID computes a trace's content address without storing it:
// the hash of the canonical (binary v1) encoding. Equal traces get equal
// IDs on every node, which is what makes uploaded workloads shareable
// across sweeps and instances. 16 hash bytes keep a deliberate
// birthday-collision (which would silently alias two workloads) out of
// reach; job IDs stay at 8 bytes because they are derived, not
// attacker-chosen cross-references.
func TraceContentID(tr *trace.Trace) (string, int64, error) {
	cw := &countingWriter{h: sha256.New()}
	if err := trace.WriteBinary(cw, tr); err != nil {
		return "", 0, err
	}
	sum := cw.h.Sum(nil)
	return "trace-" + hex.EncodeToString(sum[:16]), cw.n, nil
}

// signatureGeometry is the admission-measurement configuration: the
// paper's default geometry and bank count (signatures at banks=4 are the
// Table-I granularity Profile derivation expects).
func signatureGeometry() cache.Geometry {
	return cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
}

const signatureBanks = 4

// AddTrace validates, content-addresses, characterises and stores an
// uploaded trace; with persistence configured, the admission also
// writes the trace and its signature through to disk. It returns the
// stored info and whether the trace was already resident (admission is
// idempotent; concurrent uploads of the same bytes measure once).
// Traces must be non-empty — an access-free trace has no signature and
// nothing to simulate — and admission fails with ErrTraceStoreFull once
// the store's bound is reached.
func (e *Engine) AddTrace(tr *trace.Trace) (TraceInfo, bool, error) {
	if tr == nil {
		return TraceInfo{}, false, fmt.Errorf("engine: nil trace")
	}
	if err := tr.Validate(); err != nil {
		return TraceInfo{}, false, err
	}
	if tr.Len() == 0 {
		return TraceInfo{}, false, fmt.Errorf("engine: trace %q has no accesses", tr.Name)
	}
	id, size, err := TraceContentID(tr)
	if err != nil {
		return TraceInfo{}, false, err
	}
	st, existed, err := e.store.admit(id, func() (*storedTrace, error) {
		g := signatureGeometry()
		be, err := e.breakevenFor(g, signatureBanks)
		if err != nil {
			return nil, err
		}
		sig, err := workload.MeasureSignature(tr, g, signatureBanks, be)
		if err != nil {
			return nil, fmt.Errorf("engine: measuring trace %q: %w", tr.Name, err)
		}
		// The stored trace is a private copy: the caller keeps
		// ownership of tr, and a later mutation cannot desynchronise the
		// stored accesses from the content address and signature
		// measured here.
		return newStoredTrace(id, size, sig, tr.Clone()), nil
	})
	if err != nil {
		return TraceInfo{}, false, err
	}
	if !existed {
		e.tracesUploaded.Add(1)
	}
	return st.info, existed, nil
}

// RemoveTrace drops an uploaded trace from the store (and the
// persistent layer), freeing its admission slot. A trace referenced by
// an in-flight sweep is removed lazily: it disappears from listings and
// new submissions immediately, the running sweep's jobs still resolve
// it, and the storage is reclaimed when the sweep finishes. Subsequent
// jobs referencing the ID fail as unknown either way.
func (e *Engine) RemoveTrace(id string) bool {
	return e.store.remove(id)
}

// breakevenFor derives the Block Control threshold from the engine's
// energy model, the same way core.New does for simulations.
func (e *Engine) breakevenFor(g cache.Geometry, banks int) (uint64, error) {
	beF, err := e.tech.BreakevenCycles(g, banks)
	if err != nil {
		return 0, err
	}
	be := uint64(beF)
	if be < 1 {
		be = 1
	}
	return be, nil
}

// TraceInfo returns the stored metadata for an uploaded trace.
func (e *Engine) TraceInfo(id string) (TraceInfo, bool) {
	st, ok := e.store.get(id)
	if !ok {
		return TraceInfo{}, false
	}
	return st.info, true
}

// TraceInfos lists every uploaded trace (unordered).
func (e *Engine) TraceInfos() []TraceInfo {
	return e.store.infos()
}

// WriteTrace streams a stored trace's canonical binary (v1) encoding —
// exactly the bytes its content address hashes — to w. found reports
// whether the trace was resident (condemned traces are treated as gone,
// like every unpinned lookup); a false return writes nothing. This is
// the export path the cluster coordinator uses to forward a trace from
// the node that holds it to the shard that owns its jobs: re-admitting
// the bytes on the destination re-derives the same content address, so
// the ID survives the copy end to end.
func (e *Engine) WriteTrace(w io.Writer, id string) (found bool, err error) {
	st, ok := e.store.get(id)
	if !ok {
		return false, nil
	}
	return true, trace.WriteBinary(w, st.tr)
}

// storedTraceByID resolves an uploaded trace, including condemned
// entries (test hook; production lookups go through
// traceStore.get/resolve with explicit pin semantics — see traceFor).
func (e *Engine) storedTraceByID(id string) (*trace.Trace, bool) {
	st, ok := e.store.resolve(id)
	if !ok {
		return nil, ok
	}
	return st.tr, true
}
