package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DiskStore is the durable Store: one file per content address,
// written crash-safely (temp file in the same directory, fsync, atomic
// rename, directory fsync) so a visible blob is always complete. Put
// pays the fsync pair inline; PutBehind defers it to a group commit at
// Drain/Close, so a computed value's durability cost never sits on its
// caller's path. Every blob is framed with its key and a SHA-256 of the
// payload; a frame that fails verification — at open or at read — is
// quarantined into a subdirectory instead of served, so bit rot
// degrades to a cache miss, never to wrong data or a refused startup.
//
// On-disk frame ("<key>.blob"):
//
//	magic "NBCS" | version byte | key (uvarint len + bytes)
//	payload (uvarint len + bytes) | SHA-256(payload) (32 bytes)
//
// The embedded key pins the frame to its address: a blob renamed to
// another key's filename is detected exactly like bit rot.
type DiskStore struct {
	dir    string
	limits Limits
	wb     writeBehind
	obs    OpObserver

	mu       sync.Mutex
	idx      map[string]*diskEntry
	order    []aged[diskEntry] // oldest first (mtime at open, insertion after)
	unsynced []string          // relaxed writes awaiting the next group commit
	closed   bool
	bytes    int64

	gets, hits, puts, putFailures, deletes, evictions, corruptions atomic.Uint64
}

type diskEntry struct {
	size int64 // payload bytes
}

const (
	diskMagic   = "NBCS"
	diskVersion = 1
	blobSuffix  = ".blob"
	tmpPrefix   = ".tmp-"
	// quarantineDir collects frames that failed verification, for
	// post-mortem inspection; the store never reads it back.
	quarantineDir = "quarantine"
)

// OpenDisk opens (creating if missing) a disk store rooted at dir. It
// fails fast on an unusable path: the directory must be creatable and
// writable now, not on the first Put. Leftover temp files from a crash
// mid-write are removed; frames that fail structural verification are
// quarantined and counted. If existing blobs exceed limits, the oldest
// are evicted immediately.
func OpenDisk(dir string, limits Limits) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: creating data directory: %w", err)
	}
	// Probe writability explicitly: permission bits lie to root and to
	// read-only remounts alike, so try the actual operation.
	probe, err := os.CreateTemp(dir, tmpPrefix+"probe-")
	if err != nil {
		return nil, fmt.Errorf("cas: data directory %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	s := &DiskStore{dir: dir, limits: limits, idx: make(map[string]*diskEntry)}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

// scan builds the index from the directory: temp leftovers are deleted,
// structurally valid frames are indexed oldest-first by mtime, and
// anything else is quarantined.
func (s *DiskStore) scan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cas: scanning %s: %w", s.dir, err)
	}
	type found struct {
		key     string
		size    int64
		mtimeNS int64
	}
	var blobs []found
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			// A crash between create and rename: the frame was never
			// visible, so removing it leaves no partial blob behind.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		key, ok := strings.CutSuffix(name, blobSuffix)
		if !ok || checkKey(key) != nil {
			s.quarantine(name)
			continue
		}
		size, err := s.verifyHeader(key)
		if err != nil {
			s.quarantine(name)
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		blobs = append(blobs, found{key: key, size: size, mtimeNS: info.ModTime().UnixNano()})
	}
	sort.Slice(blobs, func(i, j int) bool {
		if blobs[i].mtimeNS != blobs[j].mtimeNS {
			return blobs[i].mtimeNS < blobs[j].mtimeNS
		}
		return blobs[i].key < blobs[j].key
	})
	for _, b := range blobs {
		e := &diskEntry{size: b.size}
		s.idx[b.key] = e
		s.order = append(s.order, aged[diskEntry]{b.key, e})
		s.bytes += b.size
	}
	return nil
}

// verifyHeader checks a frame's structure — magic, version, embedded
// key, and that the claimed payload length matches the file size —
// without reading the payload, so open cost is O(files), not O(bytes).
// The payload hash is verified on Get.
func (s *DiskStore) verifyHeader(key string) (payloadSize int64, err error) {
	f, err := os.Open(s.path(key))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	head := make([]byte, headerLen(key)+binary.MaxVarintLen64)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return 0, err
	}
	head = head[:n]
	rest, err := parseHeader(head, key)
	if err != nil {
		return 0, err
	}
	payload, consumed := binary.Uvarint(rest)
	if consumed <= 0 {
		return 0, fmt.Errorf("cas: bad payload length")
	}
	headerBytes := int64(len(head) - len(rest) + consumed)
	if fi.Size() != headerBytes+int64(payload)+sha256.Size {
		return 0, fmt.Errorf("cas: frame size mismatch")
	}
	return int64(payload), nil
}

// headerLen is the fixed prefix length before the payload length:
// magic + version + key framing.
func headerLen(key string) int {
	return len(diskMagic) + 1 + binary.MaxVarintLen64 + len(key)
}

// parseHeader consumes magic, version and the embedded key, returning
// the remainder (payload length onward).
func parseHeader(b []byte, key string) ([]byte, error) {
	if len(b) < len(diskMagic)+1 || string(b[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("cas: bad magic")
	}
	b = b[len(diskMagic):]
	if b[0] != diskVersion {
		return nil, fmt.Errorf("cas: unsupported frame version %d", b[0])
	}
	b = b[1:]
	klen, n := binary.Uvarint(b)
	if n <= 0 || klen > maxKeyLen || int(klen) > len(b)-n {
		return nil, fmt.Errorf("cas: bad key length")
	}
	b = b[n:]
	if string(b[:klen]) != key {
		return nil, fmt.Errorf("cas: frame key %q does not match address %q", b[:klen], key)
	}
	return b[klen:], nil
}

func (s *DiskStore) path(key string) string {
	return filepath.Join(s.dir, key+blobSuffix)
}

// quarantine moves a bad file out of the store. Quarantined frames keep
// their name (suffixed on collision) under quarantine/ for inspection.
func (s *DiskStore) quarantine(name string) {
	s.corruptions.Add(1)
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(filepath.Join(s.dir, name)) // can't preserve it; get it out of the way
		return
	}
	dst := filepath.Join(qdir, name)
	if _, err := os.Lstat(dst); err == nil {
		dst = fmt.Sprintf("%s.%d", dst, s.corruptions.Load())
	}
	if err := os.Rename(filepath.Join(s.dir, name), dst); err != nil {
		os.Remove(filepath.Join(s.dir, name))
	}
}

// Get implements Store: the frame is read fully and its payload hash
// verified; a frame that fails verification is quarantined and reported
// as ErrNotFound so the caller re-derives the value. The read and the
// SHA-256 check run outside the index lock, so concurrent Gets (and
// Puts of other keys) proceed in parallel.
func (s *DiskStore) Get(key string) ([]byte, error) {
	if s.obs != nil {
		start := time.Now()
		defer func() { s.obs("get", time.Since(start).Seconds()) }()
	}
	s.gets.Add(1)
	if err := checkKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e, ok := s.idx[key]
	s.mu.Unlock()
	if !ok {
		// A blob put behind whose write has not landed yet is served
		// from the pending overlay, so it is never invisible to readers.
		if blob, pok := s.wb.pendingBlob(key); pok {
			s.hits.Add(1)
			return blob, nil
		}
		return nil, ErrNotFound
	}
	return s.readPlain(key, e)
}

// readPlain is Get's read half: a full heap read of the frame, payload
// hash verified, misread frames diagnosed via corruptMiss.
func (s *DiskStore) readPlain(key string, e *diskEntry) ([]byte, error) {
	raw, err := os.ReadFile(s.path(key))
	if err == nil {
		if payload, perr := extractPayload(raw, key); perr == nil {
			s.hits.Add(1)
			return payload, nil
		}
	}
	s.corruptMiss(key, e)
	return nil, ErrNotFound
}

// corruptMiss settles a read that could not be verified: if the key is
// still indexed under the same entry, the store itself is damaged —
// quarantine and count. If it is not, a Delete or eviction raced the
// read and this is an ordinary miss.
func (s *DiskStore) corruptMiss(key string, e *diskEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.idx[key]; ok && cur == e {
		s.dropCorruptLocked(key, e)
	}
}

// GetBlob is Get's zero-copy variant: where the platform supports it,
// the frame file is mapped read-only and the returned Blob's bytes
// alias the mapping, so a large payload is decoded straight from the
// page cache without a full-frame heap copy. Verification is identical
// to Get — the payload hash is checked (from the mapped bytes) before
// the Blob is returned, and an unverifiable frame is quarantined and
// reported as ErrNotFound. Where mapping is unavailable the call
// degrades to the plain read, so callers need no platform awareness
// beyond Releasing the Blob when done.
//
// Concurrent Delete, eviction or re-Put of the key never invalidates a
// returned Blob: deletes unlink the name and overwrites rename a fresh
// file over it (frames are never truncated in place), so the mapping's
// inode — already verified — lives until Release.
func (s *DiskStore) GetBlob(key string) (*Blob, error) {
	if s.obs != nil {
		start := time.Now()
		defer func() { s.obs("get", time.Since(start).Seconds()) }()
	}
	s.gets.Add(1)
	if err := checkKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e, ok := s.idx[key]
	s.mu.Unlock()
	if !ok {
		// Same overlay read-through as Get: an unlanded PutBehind is
		// served from memory (nothing to map yet).
		if blob, pok := s.wb.pendingBlob(key); pok {
			s.hits.Add(1)
			return &Blob{data: blob}, nil
		}
		return nil, ErrNotFound
	}
	raw, unmap, err := mmapFile(s.path(key))
	if err != nil {
		// Not mappable here (platform, empty file, transient open
		// failure): the plain path settles it, including the
		// corruption-vs-miss diagnosis if the file is truly unreadable.
		payload, gerr := s.readPlain(key, e)
		if gerr != nil {
			return nil, gerr
		}
		return &Blob{data: payload}, nil
	}
	payload, perr := extractPayload(raw, key)
	if perr != nil {
		_ = unmap()
		s.corruptMiss(key, e)
		return nil, ErrNotFound
	}
	s.hits.Add(1)
	return &Blob{data: payload, release: unmap}, nil
}

// extractPayload parses and verifies a full frame, returning the
// payload slice (aliasing raw).
func extractPayload(raw []byte, key string) ([]byte, error) {
	rest, err := parseHeader(raw, key)
	if err != nil {
		return nil, err
	}
	plen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("cas: bad payload length")
	}
	rest = rest[n:]
	if uint64(len(rest)) != plen+sha256.Size {
		return nil, fmt.Errorf("cas: frame size mismatch")
	}
	payload, sum := rest[:plen], rest[plen:]
	got := sha256.Sum256(payload)
	if !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("cas: payload checksum mismatch")
	}
	return payload, nil
}

// dropCorruptLocked quarantines key's file and removes it from the
// index.
func (s *DiskStore) dropCorruptLocked(key string, e *diskEntry) {
	s.quarantine(key + blobSuffix)
	delete(s.idx, key)
	s.bytes -= e.size
}

// Put implements Store, crash-safely: the frame lands under a temp name
// in the store directory, is fsynced, renamed over the final name, and
// the directory entry is fsynced too. A crash at any point leaves
// either the old state or the new, never a partial frame under the
// final name. The write and its fsyncs run outside the index lock, so
// concurrent Puts of distinct keys overlap instead of serialising on
// the disk (the temp-name scheme makes that safe; concurrent Puts of
// one key carry identical content-addressed bytes, so last-rename-wins
// is harmless).
func (s *DiskStore) Put(key string, blob []byte) error {
	return s.putFrame(key, blob, true)
}

// PutBehind implements Store. The background write is relaxed: the
// frame is written and renamed into place but not fsynced — the blob
// is readable and survives a process exit, and a machine crash in the
// window loses at most the unsynced frames, each of which the checksum
// quarantines back into a cache miss at the next open (never wrong
// data). Durability is group-committed instead: Drain/Close fsync every
// relaxed frame and the directory once, so the per-blob fsync pair
// leaves the caller's path without leaving the store's close-to-open
// contract.
func (s *DiskStore) PutBehind(key string, blob []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return s.wb.put(key, blob, func(key string, blob []byte) error {
		return s.putFrame(key, blob, false)
	}, &s.putFailures)
}

// putFrame is Put's body; sync selects crash-durable (fsync file +
// directory) or relaxed group-committed writing.
func (s *DiskStore) putFrame(key string, blob []byte, sync bool) error {
	if s.obs != nil {
		start := time.Now()
		defer func() { s.obs("put", time.Since(start).Seconds()) }()
	}
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := s.writeFile(key, encodeFrame(key, blob), sync); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Closed while writing; the frame is on disk and will be
		// indexed by the next open, but this handle is done.
		return ErrClosed
	}
	if !sync {
		s.unsynced = append(s.unsynced, key)
	}
	//nbtivet:ignore lockedio the lstat must be atomic with the index update: a concurrent Delete between check and insert would leave a dangling index entry (PR 4 race fix)
	if _, err := os.Lstat(s.path(key)); errors.Is(err, fs.ErrNotExist) {
		// A Delete (or eviction) of this key won the race between our
		// rename and this index update: the file is already gone, and
		// indexing it anyway would leave a dangling entry that a later
		// Get would misdiagnose as corruption. The put stands as
		// written-then-deleted. Only provable absence skips the index —
		// a transient Lstat failure (fd exhaustion, say) must not
		// silently orphan a blob that is on disk.
		s.puts.Add(1)
		return nil
	}
	if e, ok := s.idx[key]; ok {
		s.bytes += int64(len(blob)) - e.size
		e.size = int64(len(blob))
	} else {
		e := &diskEntry{size: int64(len(blob))}
		s.idx[key] = e
		s.order = append(s.order, aged[diskEntry]{key, e})
		s.bytes += int64(len(blob))
	}
	s.puts.Add(1)
	s.evictLocked(key)
	return nil
}

func encodeFrame(key string, blob []byte) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	frame := make([]byte, 0, len(diskMagic)+1+2*binary.MaxVarintLen64+len(key)+len(blob)+sha256.Size)
	frame = append(frame, diskMagic...)
	frame = append(frame, diskVersion)
	frame = append(frame, lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(key)))]...)
	frame = append(frame, key...)
	frame = append(frame, lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(blob)))]...)
	frame = append(frame, blob...)
	sum := sha256.Sum256(blob)
	return append(frame, sum[:]...)
}

func (s *DiskStore) writeFile(key string, frame []byte, sync bool) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("cas: creating temp blob: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		return fmt.Errorf("cas: writing blob: %w", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("cas: syncing blob: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cas: closing blob: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("cas: publishing blob: %w", err)
	}
	if !sync {
		return nil
	}
	return s.syncDir()
}

// syncPending group-commits every relaxed write since the last commit:
// each unsynced frame is fsynced, then the directory once — N+1 fsyncs
// for N blobs, against the 2N the per-put path would have paid, and all
// of them off PutBehind's caller path. A frame already evicted or
// deleted is skipped; a frame that cannot be synced is counted as a put
// failure (the blob is still readable, it is just not crash-durable).
func (s *DiskStore) syncPending() {
	s.mu.Lock()
	pending := s.unsynced
	s.unsynced = nil
	s.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	synced := false
	for _, key := range pending {
		f, err := os.Open(s.path(key))
		if err != nil {
			if !os.IsNotExist(err) {
				s.putFailures.Add(1)
			}
			continue
		}
		if err := f.Sync(); err != nil {
			s.putFailures.Add(1)
		} else {
			synced = true
		}
		f.Close()
	}
	if synced {
		_ = s.syncDir()
	}
}

// syncDir persists the directory entry itself, so the rename survives a
// crash.
func (s *DiskStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("cas: syncing directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("cas: syncing directory: %w", err)
	}
	return nil
}

// evictLocked drops the oldest blobs until the limit holds, shielding
// keep, and compacts the order and group-commit lists against the index.
func (s *DiskStore) evictLocked(keep string) {
	limit := s.limits.MaxEntries
	for i := 0; limit > 0 && len(s.idx) > limit && i < len(s.order); i++ {
		a := s.order[i]
		if !a.live(s.idx) || a.key == keep {
			continue
		}
		//nbtivet:ignore lockedio unlink must be atomic with the index removal or a racing Put of the same key could index a file eviction then deletes
		os.Remove(s.path(a.key))
		delete(s.idx, a.key)
		s.bytes -= a.e.size
		s.evictions.Add(1)
	}
	if len(s.order) > 2*(len(s.idx)+1) {
		live := s.order[:0]
		for _, a := range s.order {
			if a.live(s.idx) {
				live = append(live, a)
			}
		}
		s.order = live
	}
	// The group-commit list gets the same bound: a key evicted or
	// deleted before the commit has nothing left to sync, and a key put
	// behind twice needs one fsync.
	if len(s.unsynced) > 2*(len(s.idx)+1) {
		listed := make(map[string]bool, len(s.idx))
		live := s.unsynced[:0]
		for _, key := range s.unsynced {
			if _, ok := s.idx[key]; ok && !listed[key] {
				listed[key] = true
				live = append(live, key)
			}
		}
		s.unsynced = live
	}
}

// Delete implements Store.
func (s *DiskStore) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.idx[key]
	if !ok {
		return ErrNotFound
	}
	//nbtivet:ignore lockedio unlink must be atomic with the index removal: dropping the lock in between lets a racing Put re-index the doomed file (PR 4 race fix)
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cas: deleting blob: %w", err)
	}
	delete(s.idx, key)
	s.bytes -= e.size
	s.deletes.Add(1)
	return nil
}

// List implements Store: resident blobs, oldest first.
func (s *DiskStore) List() ([]Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]Stat, 0, len(s.idx))
	for _, a := range s.order {
		if a.live(s.idx) {
			out = append(out, Stat{Key: a.key, Size: a.e.size})
		}
	}
	return out, nil
}

// Metrics implements Store.
func (s *DiskStore) Metrics() Metrics {
	s.mu.Lock()
	entries, bytes := len(s.idx), s.bytes
	s.mu.Unlock()
	return Metrics{
		Gets:        s.gets.Load(),
		Hits:        s.hits.Load(),
		Puts:        s.puts.Load(),
		PutFailures: s.putFailures.Load(),
		Deletes:     s.deletes.Load(),
		Evictions:   s.evictions.Load(),
		Corruptions: s.corruptions.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// SetObserver installs the per-operation latency observer. Install it
// before the store is shared across goroutines.
func (s *DiskStore) SetObserver(fn OpObserver) { s.obs = fn }

// Drain implements Store: every PutBehind write lands on disk, then
// their durability is group-committed (see syncPending). Callers about
// to reason about the resident set — List for an inventory, a reset
// that must not race a late put back in — or about to snapshot the
// directory drain first.
func (s *DiskStore) Drain() {
	s.wb.drain()
	s.syncPending()
}

// Close implements Store: outstanding PutBehind writes are drained and
// group-committed (so a reopened store sees everything this one was
// given), then the index is released; blobs stay on disk for the next
// open.
func (s *DiskStore) Close() error {
	s.wb.close()
	s.syncPending()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.idx = nil
	s.order = nil
	s.bytes = 0
	return nil
}
