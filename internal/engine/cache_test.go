package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"nbticache/internal/cas"
)

// joinCtx closes joined the first time Done is called. flight.do
// consults ctx.Done only once it is waiting on another caller's call,
// so a test can release a leader knowing its waiters already wait.
type joinCtx struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func newJoinCtx(parent context.Context) *joinCtx {
	return &joinCtx{Context: parent, joined: make(chan struct{})}
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// TestFlightSingleFlight: concurrent callers of one key run one
// computation and share its value. With memo the value then serves
// later callers too; without it the next caller computes afresh.
func TestFlightSingleFlight(t *testing.T) {
	for _, memo := range []bool{false, true} {
		f := newFlight[int](memo)
		started, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := f.do(context.Background(), "k", func() (int, error) {
				close(started)
				<-release
				return 42, nil
			}); v != 42 || err != nil {
				t.Errorf("leader got (%d, %v)", v, err)
			}
		}()
		<-started
		const waiters = 7
		vals := make([]int, waiters)
		errs := make([]error, waiters)
		for i := 0; i < waiters; i++ {
			ctx := newJoinCtx(context.Background())
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals[i], errs[i] = f.do(ctx, "k", func() (int, error) {
					t.Error("waiter ran its own computation")
					return 0, nil
				})
			}()
			<-ctx.joined
		}
		close(release)
		wg.Wait()
		for i := range vals {
			if vals[i] != 42 || errs[i] != nil {
				t.Errorf("memo=%v: waiter %d got (%d, %v), want (42, nil)", memo, i, vals[i], errs[i])
			}
		}
		if f.misses.Load() != 1 || f.hits.Load() != waiters {
			t.Errorf("memo=%v: misses/hits = %d/%d, want 1/%d", memo, f.misses.Load(), f.hits.Load(), waiters)
		}
		want := 7
		if memo {
			want = 42
		}
		if v, _ := f.do(context.Background(), "k", func() (int, error) { return 7, nil }); v != want {
			t.Errorf("memo=%v: later call got %d, want %d", memo, v, want)
		}
	}
}

// TestFlightCacheLeaderCancellation: a waiter must not inherit the
// leader's cancellation. When the leader's context dies mid-compute,
// a waiter with a live context takes over and computes the value
// itself; the cancelled sweep is the only one that observes the error.
func TestFlightCacheLeaderCancellation(t *testing.T) {
	f := newFlight[int](true)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)

	var leaderErr error
	go func() {
		defer wg.Done()
		_, leaderErr = f.do(leaderCtx, "k", func() (int, error) {
			close(leaderStarted)
			<-leaderCtx.Done() // simulate a job that observes cancellation
			return 0, leaderCtx.Err()
		})
	}()

	<-leaderStarted
	waiterCtx := newJoinCtx(context.Background())
	var waiterVal int
	var waiterErr error
	go func() {
		defer wg.Done()
		waiterVal, waiterErr = f.do(waiterCtx, "k", func() (int, error) {
			return 42, nil
		})
	}()
	<-waiterCtx.joined
	cancelLeader()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", leaderErr)
	}
	if waiterErr != nil {
		t.Fatalf("waiter inherited the leader's fate: %v", waiterErr)
	}
	if waiterVal != 42 || f.misses.Load() != 2 {
		t.Errorf("waiter got %d after %d leaders, want 42 from its own takeover (2 leaders)", waiterVal, f.misses.Load())
	}
	if v, _ := f.do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 42 {
		t.Errorf("memo holds %d after takeover, want 42", v)
	}
}

// TestFlightCacheDeterministicErrorShared: real (non-context) failures
// propagate to waiters rather than triggering retries, and are
// forgotten so a later call can try again.
func TestFlightCacheDeterministicErrorShared(t *testing.T) {
	f := newFlight[int](true)
	boom := fmt.Errorf("boom")
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, leaderErr = f.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started

	// Release the leader only once the waiter waits on its call, so the
	// waiter cannot arrive after the failure is forgotten and lead.
	waiterCtx := newJoinCtx(context.Background())
	wg.Add(1)
	var waiterErr error
	go func() {
		defer wg.Done()
		_, waiterErr = f.do(waiterCtx, "k", func() (int, error) {
			t.Error("waiter recomputed a deterministic failure")
			return 0, nil
		})
	}()
	<-waiterCtx.joined
	close(release)
	wg.Wait()

	if !errors.Is(leaderErr, boom) || !errors.Is(waiterErr, boom) {
		t.Errorf("errors = %v / %v, want both boom", leaderErr, waiterErr)
	}
	// Forgotten: a fresh call recomputes.
	v, err := f.do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || f.misses.Load() != 2 {
		t.Errorf("retry after failure got (%d, %v) after %d leaders, want (7, nil) from a second leader", v, err, f.misses.Load())
	}
}

// TestFlightPanicSettlesWaiters: a panicking computation releases its
// waiters with an error naming the panic, still panics in the leader,
// and leaves nothing behind, so the next caller computes.
func TestFlightPanicSettlesWaiters(t *testing.T) {
	f := newFlight[int](true)
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader")
			}
		}()
		f.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	waiterCtx := newJoinCtx(context.Background())
	var waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, waiterErr = f.do(waiterCtx, "k", func() (int, error) {
			t.Error("waiter recomputed after the leader panicked")
			return 0, nil
		})
	}()
	<-waiterCtx.joined
	close(release)
	wg.Wait()
	if waiterErr == nil || !strings.Contains(waiterErr.Error(), "kaboom") {
		t.Errorf("waiter error = %v, want the leader's panic", waiterErr)
	}
	if v, err := f.do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("call after the panic got (%d, %v), want (7, nil)", v, err)
	}
}

// resultStores runs fn against a result cache over each cas.Store
// kind, so the read-through and the write behind are checked on both.
func resultStores(t *testing.T, fn func(t *testing.T, c *blobCache[string], s cas.Store)) {
	t.Helper()
	codec := blobCodec[string]{
		encode: func(v string) ([]byte, error) { return []byte(v), nil },
		decode: func(_ string, blob []byte) (string, error) { return string(blob), nil },
	}
	t.Run("mem", func(t *testing.T) {
		s := cas.NewMem(cas.Limits{})
		t.Cleanup(func() { s.Close() })
		fn(t, newBlobCache(s, codec), s)
	})
	t.Run("disk", func(t *testing.T) {
		s, err := cas.OpenDisk(t.TempDir(), cas.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fn(t, newBlobCache(s, codec), s)
	})
}

// TestResultCacheSingleFlight: racing callers of one result run one
// computation; every other caller is served the shared blob, and once
// stored a later call is a pure read.
func TestResultCacheSingleFlight(t *testing.T) {
	resultStores(t, func(t *testing.T, c *blobCache[string], s cas.Store) {
		const racers = 8
		var mu sync.Mutex
		computes := 0
		started, release := make(chan struct{}), make(chan struct{})
		vals := make([]string, racers)
		cached := make([]bool, racers)
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, hit, err := c.do(context.Background(), "job-k", func() (string, error) {
					mu.Lock()
					computes++
					mu.Unlock()
					close(started)
					<-release
					return "value", nil
				})
				if err != nil {
					t.Error(err)
				}
				vals[i], cached[i] = v, hit
			}()
		}
		<-started
		close(release)
		wg.Wait()
		if computes != 1 {
			t.Fatalf("computed %d times, want 1", computes)
		}
		nhit := 0
		for i := range vals {
			if vals[i] != "value" {
				t.Fatalf("racer %d got %q", i, vals[i])
			}
			if cached[i] {
				nhit++
			}
		}
		if nhit != racers-1 || c.misses.Load() != 1 || c.hits.Load() != racers-1 {
			t.Errorf("%d cached (misses/hits %d/%d), want %d: every caller but the leader",
				nhit, c.misses.Load(), c.hits.Load(), racers-1)
		}
		if v, hit, err := c.do(context.Background(), "job-k", func() (string, error) {
			t.Error("computed a stored result")
			return "", nil
		}); err != nil || !hit || v != "value" {
			t.Fatalf("read-through = (%q, hit %v, %v)", v, hit, err)
		}
		s.Drain()
		if blob, err := s.Get("job-k"); err != nil || string(blob) != "value" {
			t.Errorf("stored blob after Drain = %q, %v", blob, err)
		}
	})
}

// TestResultCacheFailureNotCached: a failed computation stores nothing,
// and a retry computes afresh.
func TestResultCacheFailureNotCached(t *testing.T) {
	resultStores(t, func(t *testing.T, c *blobCache[string], s cas.Store) {
		boom := errors.New("boom")
		if _, _, err := c.do(context.Background(), "job-f", func() (string, error) {
			return "", boom
		}); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		s.Drain()
		if _, err := s.Get("job-f"); !errors.Is(err, cas.ErrNotFound) {
			t.Fatalf("failed computation was stored: %v", err)
		}
		v, hit, err := c.do(context.Background(), "job-f", func() (string, error) {
			return "ok", nil
		})
		if err != nil || hit || v != "ok" {
			t.Fatalf("retry = (%q, hit %v, %v), want a fresh computation", v, hit, err)
		}
	})
}

// TestResultCachePanicSettlesWaiters: a panicking computation releases
// its waiter with an error naming the panic, still panics in the
// leader, and stores nothing, so the next caller computes.
func TestResultCachePanicSettlesWaiters(t *testing.T) {
	resultStores(t, func(t *testing.T, c *blobCache[string], s cas.Store) {
		started, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() == nil {
					t.Error("panic did not propagate to the leader")
				}
			}()
			c.do(context.Background(), "job-p", func() (string, error) {
				close(started)
				<-release
				panic("kaboom")
			})
		}()
		<-started
		waiterCtx := newJoinCtx(context.Background())
		var waiterErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, waiterErr = c.do(waiterCtx, "job-p", func() (string, error) {
				t.Error("waiter recomputed after the leader panicked")
				return "", nil
			})
		}()
		<-waiterCtx.joined
		close(release)
		wg.Wait()
		if waiterErr == nil || !strings.Contains(waiterErr.Error(), "kaboom") {
			t.Errorf("waiter error = %v, want the leader's panic", waiterErr)
		}
		s.Drain()
		if _, err := s.Get("job-p"); !errors.Is(err, cas.ErrNotFound) {
			t.Errorf("panicked computation was stored: %v", err)
		}
		if v, hit, err := c.do(context.Background(), "job-p", func() (string, error) {
			return "recovered", nil
		}); err != nil || hit || v != "recovered" {
			t.Errorf("call after the panic = (%q, hit %v, %v), want a fresh computation", v, hit, err)
		}
	})
}

// TestResultCacheLeaderCancellation: a waiter does not inherit its
// leader's cancellation; it takes over, computes, and stores the result.
func TestResultCacheLeaderCancellation(t *testing.T) {
	resultStores(t, func(t *testing.T, c *blobCache[string], s cas.Store) {
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		leaderStarted := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		var leaderErr error
		go func() {
			defer wg.Done()
			_, _, leaderErr = c.do(leaderCtx, "job-c", func() (string, error) {
				close(leaderStarted)
				<-leaderCtx.Done()
				return "", leaderCtx.Err()
			})
		}()
		<-leaderStarted
		waiterCtx := newJoinCtx(context.Background())
		var waiterVal string
		var waiterErr error
		go func() {
			defer wg.Done()
			waiterVal, _, waiterErr = c.do(waiterCtx, "job-c", func() (string, error) {
				return "takeover", nil
			})
		}()
		<-waiterCtx.joined
		cancelLeader()
		wg.Wait()
		if !errors.Is(leaderErr, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", leaderErr)
		}
		if waiterErr != nil || waiterVal != "takeover" {
			t.Errorf("waiter = (%q, %v), want (takeover, nil)", waiterVal, waiterErr)
		}
		s.Drain()
		if blob, err := s.Get("job-c"); err != nil || string(blob) != "takeover" {
			t.Errorf("stored blob after takeover = %q, %v", blob, err)
		}
	})
}
