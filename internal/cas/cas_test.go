package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// stores runs a subtest against each implementation.
func stores(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		s := NewMem(Limits{})
		t.Cleanup(func() { s.Close() })
		fn(t, s)
	})
	t.Run("disk", func(t *testing.T) {
		s, err := OpenDisk(t.TempDir(), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fn(t, s)
	})
}

func boundedStore(t *testing.T, kind string, limits Limits) Store {
	t.Helper()
	if kind == "mem" {
		s := NewMem(limits)
		t.Cleanup(func() { s.Close() })
		return s
	}
	s, err := OpenDisk(t.TempDir(), limits)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		if _, err := s.Get("job-absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get absent = %v, want ErrNotFound", err)
		}
		blob := []byte("hello blobs")
		if err := s.Put("job-a", blob); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("job-a")
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Get = %q, %v", got, err)
		}
		// Overwrite is size-accounted, not duplicated.
		if err := s.Put("job-a", []byte("xy")); err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		if m.Entries != 1 || m.Bytes != 2 {
			t.Fatalf("after overwrite: %+v", m)
		}
		if err := s.Delete("job-a"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("job-a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete = %v, want ErrNotFound", err)
		}
		if m := s.Metrics(); m.Entries != 0 || m.Bytes != 0 {
			t.Fatalf("after delete: %+v", m)
		}
	})
}

func TestStoreRejectsBadKeys(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		for _, key := range []string{
			"", ".hidden", "a/b", "..", "a b", "k\x00ey",
			strings.Repeat("x", maxKeyLen+1),
		} {
			if err := s.Put(key, []byte("v")); !errors.Is(err, ErrBadKey) {
				t.Errorf("Put(%q) = %v, want ErrBadKey", key, err)
			}
			if _, err := s.Get(key); !errors.Is(err, ErrBadKey) {
				t.Errorf("Get(%q) = %v, want ErrBadKey", key, err)
			}
		}
	})
}

func TestStoreListOldestFirst(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		for i := 0; i < 5; i++ {
			if err := s.Put(fmt.Sprintf("job-%d", i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Overwriting an old key must not refresh its age.
		if err := s.Put("job-1", []byte("new")); err != nil {
			t.Fatal(err)
		}
		if got, want := listed(t, s), "job-0,job-1,job-2,job-3,job-4"; got != want {
			t.Fatalf("List order = %v, want %v", got, want)
		}
	})
}

// listed renders the store's List keys, oldest first.
func listed(t *testing.T, s Store) string {
	t.Helper()
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, st := range list {
		keys = append(keys, st.Key)
	}
	return strings.Join(keys, ",")
}

// TestStoreRePutAfterDelete: a key deleted and put again is resident
// once, aged from the new put, so it lists once, after the keys put
// before it, and eviction takes the older key first. A result cache
// reset deletes and re-puts every result this way.
func TestStoreRePutAfterDelete(t *testing.T) {
	for _, kind := range []string{"mem", "disk"} {
		t.Run(kind, func(t *testing.T) {
			s := boundedStore(t, kind, Limits{MaxEntries: 2})
			put := func(key string) {
				t.Helper()
				if err := s.Put(key, []byte(key)); err != nil {
					t.Fatal(err)
				}
			}
			put("job-a")
			put("job-b")
			if err := s.Delete("job-a"); err != nil {
				t.Fatal(err)
			}
			put("job-a")
			if got, want := listed(t, s), "job-b,job-a"; got != want {
				t.Fatalf("after re-put: List = %v, want %v", got, want)
			}
			put("job-c")
			if got, want := listed(t, s), "job-a,job-c"; got != want {
				t.Fatalf("after eviction: List = %v, want %v", got, want)
			}
			if _, err := s.Get("job-b"); !errors.Is(err, ErrNotFound) {
				t.Errorf("older key survived eviction: %v", err)
			}
			if m := s.Metrics(); m.Entries != 2 || m.Evictions != 1 {
				t.Errorf("metrics after eviction: %+v", m)
			}
		})
	}
}

func TestStoreEviction(t *testing.T) {
	for _, kind := range []string{"mem", "disk"} {
		t.Run(kind, func(t *testing.T) {
			s := boundedStore(t, kind, Limits{MaxEntries: 2})
			for i := 0; i < 4; i++ {
				if err := s.Put(fmt.Sprintf("job-%d", i), []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
			m := s.Metrics()
			if m.Entries != 2 || m.Evictions != 2 {
				t.Fatalf("metrics after entry eviction: %+v", m)
			}
			if _, err := s.Get("job-0"); !errors.Is(err, ErrNotFound) {
				t.Errorf("oldest survived eviction: %v", err)
			}
			if _, err := s.Get("job-3"); err != nil {
				t.Errorf("newest evicted: %v", err)
			}
		})
	}
}

// TestPutBehind: the write lands behind the caller — PutBehind returns
// while the store write is still held — yet the blob is readable at
// once, and after Drain it is listed and counted.
func TestPutBehind(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		held, release := make(chan struct{}), make(chan struct{})
		s.(interface{ SetObserver(OpObserver) }).SetObserver(func(op string, _ float64) {
			if op == "put" {
				close(held)
				<-release
			}
		})
		if err := s.PutBehind("job-wb", []byte("behind")); err != nil {
			t.Fatal(err)
		}
		<-held // the write is running, and PutBehind has returned
		if got, err := s.Get("job-wb"); err != nil || string(got) != "behind" {
			t.Fatalf("Get right after PutBehind = %q, %v", got, err)
		}
		close(release)
		s.Drain()
		list, err := s.List()
		if err != nil || len(list) != 1 || list[0].Key != "job-wb" || list[0].Size != 6 {
			t.Fatalf("List after Drain = %+v, %v", list, err)
		}
		if m := s.Metrics(); m.Puts != 1 || m.PutFailures != 0 || m.Entries != 1 {
			t.Errorf("after Drain: %+v, want 1 put, 0 failures, 1 entry", m)
		}
	})
}

// TestWriteBehindOverlay: until its background write lands, a blob put
// behind is served from the pending overlay; a write that fails is
// counted and the overlay entry retired.
func TestWriteBehindOverlay(t *testing.T) {
	var w writeBehind
	var failures atomic.Uint64
	release := make(chan struct{})
	err := w.put("job-o", []byte("pending"), func(string, []byte) error {
		<-release
		return errors.New("disk full")
	}, &failures)
	if err != nil {
		t.Fatal(err)
	}
	if blob, ok := w.pendingBlob("job-o"); !ok || string(blob) != "pending" {
		t.Fatalf("overlay while the write is held = %q, %v", blob, ok)
	}
	close(release)
	w.drain()
	if _, ok := w.pendingBlob("job-o"); ok {
		t.Error("overlay entry outlived its write")
	}
	if n := failures.Load(); n != 1 {
		t.Errorf("failures = %d, want 1", n)
	}
}

// TestPutBehindFailureCounted: a background write that cannot land (the
// store directory is gone) fails no caller, leaves no blob, and counts
// in PutFailures.
func TestPutBehindFailureCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBehind("job-lost", []byte("v")); err != nil {
		t.Fatalf("PutBehind = %v, want the failure left to the background", err)
	}
	s.Drain()
	if m := s.Metrics(); m.PutFailures != 1 || m.Puts != 0 || m.Entries != 0 {
		t.Errorf("after a failed write: %+v, want 1 failure, 0 puts, 0 entries", m)
	}
	if _, err := s.Get("job-lost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after a failed write = %v, want ErrNotFound", err)
	}
}

func TestStoreClosed(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		if err := s.Put("job-x", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("job-x"); !errors.Is(err, ErrClosed) {
			t.Errorf("Get after close = %v", err)
		}
		if err := s.Put("job-y", nil); !errors.Is(err, ErrClosed) {
			t.Errorf("Put after close = %v", err)
		}
		if err := s.PutBehind("job-z", []byte("v")); !errors.Is(err, ErrClosed) {
			t.Errorf("PutBehind after close = %v", err)
		}
	})
}

// TestStoreConcurrentMixedOps hammers Put/Get/Delete/List from many
// goroutines so the race detector sees the unlocked I/O paths; the only
// invariant asserted is that nothing corrupts (a Get returns either a
// full valid blob or a miss — DiskStore's checksum would surface torn
// state as a Corruptions count).
func TestStoreConcurrentMixedOps(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		const keys = 8
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					key := fmt.Sprintf("job-%d", i%keys)
					switch (i + w) % 3 {
					case 0:
						if err := s.Put(key, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
							t.Error(err)
						}
					case 1:
						if blob, err := s.Get(key); err == nil && len(blob) != 64 {
							t.Errorf("partial blob: %d bytes", len(blob))
						}
					case 2:
						s.Delete(key) // ErrNotFound is fine
					}
				}
			}(w)
		}
		wg.Wait()
		if m := s.Metrics(); m.Corruptions != 0 {
			t.Errorf("concurrent ops corrupted the store: %+v", m)
		}
	})
}

// --- disk-specific behaviour ---

func TestDiskReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job-keep", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	blob, err := s2.Get("job-keep")
	if err != nil || string(blob) != "survives" {
		t.Fatalf("after reopen: %q, %v", blob, err)
	}
}

// TestDiskUnsyncedBounded: keys put behind and then evicted leave the
// group-commit list, so it stays within twice the resident count, and
// every resident blob is still committed and reads back after a reopen.
func TestDiskUnsyncedBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{MaxEntries: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds of 50, drained in between, keep the background writers few.
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("job-%04d", round*50+i)
			if err := s.PutBehind(key, []byte("v-"+key)); err != nil {
				t.Fatal(err)
			}
		}
		s.wb.drain()
	}
	s.mu.Lock()
	listed, resident := len(s.unsynced), len(s.idx)
	s.mu.Unlock()
	if resident != 100 || listed > 202 {
		t.Fatalf("after 1000 puts behind: %d keys awaiting commit, %d resident; want <= 202 and 100", listed, resident)
	}
	want, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDisk(dir, Limits{MaxEntries: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, st := range want {
		if blob, err := s2.Get(st.Key); err != nil || string(blob) != "v-"+st.Key {
			t.Fatalf("reopened Get(%s) = %q, %v", st.Key, blob, err)
		}
	}
	if m := s2.Metrics(); m.Entries != 100 || m.Corruptions != 0 {
		t.Fatalf("reopened store: %+v", m)
	}
}

// TestDiskCrashMidWrite: a temp file left by a crash between create and
// rename is cleaned at open and never visible as a blob.
func TestDiskCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job-done", []byte("complete")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-write: a partial frame under a temp name.
	stray := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(stray, []byte("NBCS\x01partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Lstat(stray); !os.IsNotExist(err) {
		t.Errorf("temp leftover not cleaned: %v", err)
	}
	list, err := s2.List()
	if err != nil || len(list) != 1 || list[0].Key != "job-done" {
		t.Fatalf("List after crash recovery = %+v, %v", list, err)
	}
	if m := s2.Metrics(); m.Corruptions != 0 {
		t.Errorf("temp cleanup counted as corruption: %+v", m)
	}
}

// TestDiskCorruptBlobQuarantined: a bit-flipped payload is detected at
// Get, quarantined, and reported as a miss — never served, never fatal.
func TestDiskCorruptBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job-rot", []byte("pristine payload")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one payload byte (the tail of the frame before the checksum).
	path := filepath.Join(dir, "job-rot"+blobSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-40] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get("job-rot"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt Get = %v, want ErrNotFound", err)
	}
	if m := s2.Metrics(); m.Corruptions != 1 || m.Entries != 0 {
		t.Fatalf("metrics after corruption: %+v", m)
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir = %v, %v (want exactly the bad frame)", q, err)
	}
	// The slot is reusable.
	if err := s2.Put("job-rot", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if blob, err := s2.Get("job-rot"); err != nil || string(blob) != "fresh" {
		t.Fatalf("refill = %q, %v", blob, err)
	}
}

// TestDiskTruncatedBlobQuarantinedAtOpen: structural damage (a frame
// cut short) is caught by the open scan, not served later.
func TestDiskTruncatedBlobQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job-cut", []byte("soon to be truncated")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "job-cut"+blobSuffix)
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m := s2.Metrics(); m.Corruptions != 1 || m.Entries != 0 {
		t.Fatalf("metrics after truncation: %+v", m)
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Error("truncated frame still visible in the store directory")
	}
}

// TestDiskRenamedBlobQuarantined: a frame copied to another key's
// filename fails the embedded-key check.
func TestDiskRenamedBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job-orig", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "job-orig"+blobSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-other"+blobSuffix), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get("job-orig"); err != nil {
		t.Errorf("original lost: %v", err)
	}
	if _, err := s2.Get("job-other"); !errors.Is(err, ErrNotFound) {
		t.Errorf("aliased frame served: %v", err)
	}
	if m := s2.Metrics(); m.Corruptions != 1 {
		t.Errorf("aliased frame not quarantined: %+v", m)
	}
}

func TestDiskOpenFailsFastOnUnusablePath(t *testing.T) {
	// A path through a regular file cannot be a directory: Open must
	// fail now, not on the first Put.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(filepath.Join(f, "sub"), Limits{}); err == nil {
		t.Fatal("OpenDisk through a regular file succeeded")
	}
	if _, err := OpenDisk("", Limits{}); err == nil {
		t.Fatal("OpenDisk with empty dir succeeded")
	}
}

// TestDiskOpenEnforcesLimits: reopening with tighter limits evicts the
// oldest existing blobs immediately.
func TestDiskOpenEnforcesLimits(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("job-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := OpenDisk(dir, Limits{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m := s2.Metrics(); m.Entries != 2 || m.Evictions != 2 {
		t.Fatalf("metrics after shrunken reopen: %+v", m)
	}
}
