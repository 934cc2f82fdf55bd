package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// fakePeer is the minimal peer surface the membership probe path
// touches: /healthz behind a toggleable fault. White-box on purpose —
// probePeer is driven directly, so the test is deterministic with the
// health loop off.
func fakePeer(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	var unhealthy atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if unhealthy.Load() {
			http.Error(w, `{"error":"wedged"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &unhealthy
}

// TestTransientProbeNoEviction pins the eviction hysteresis regression:
// a transient 5xx on the health probe — one failed probe, or any streak
// shorter than evictAfterProbes — must never evict a peer from the
// ring, and a success in between must reset the streak. Only a full
// streak of consecutive failures evicts, and a later healthy probe
// re-admits the peer.
func TestTransientProbeNoEviction(t *testing.T) {
	ts, unhealthy := fakePeer(t)
	c, err := New(Options{
		Peers:          []string{ts.URL},
		HealthInterval: -1, // probes fired by hand below
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	peer := c.Peers()[0]

	probeFails := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.shards[peer].probeFails
	}

	// A streak one short of the threshold: still a ring member.
	unhealthy.Store(true)
	for i := 1; i < evictAfterProbes; i++ {
		c.probePeer(peer)
		if st := c.Stats(); st.AlivePeers != 1 || st.PeerFailures != 0 {
			t.Fatalf("after %d transient probe failures: %d alive peers, %d failures; want the peer kept",
				i, st.AlivePeers, st.PeerFailures)
		}
		if got := probeFails(); got != i {
			t.Fatalf("probeFails = %d after %d failed probes", got, i)
		}
	}

	// A healthy probe resets the streak — failures must be consecutive.
	unhealthy.Store(false)
	c.probePeer(peer)
	if got := probeFails(); got != 0 {
		t.Fatalf("probeFails = %d after recovery, want 0", got)
	}
	unhealthy.Store(true)
	for i := 1; i < evictAfterProbes; i++ {
		c.probePeer(peer)
	}
	if st := c.Stats(); st.AlivePeers != 1 || st.PeerFailures != 0 {
		t.Fatalf("reset streak evicted the peer: %+v", st)
	}

	// The full streak evicts.
	c.probePeer(peer)
	st := c.Stats()
	if st.AlivePeers != 0 || st.PeerFailures != 1 {
		t.Fatalf("after %d consecutive failures: %d alive peers, %d failures; want eviction",
			evictAfterProbes, st.AlivePeers, st.PeerFailures)
	}
	// Probing a dead, still-unhealthy peer is a no-op (no streak
	// building against an already-evicted member).
	c.probePeer(peer)
	if got := probeFails(); got != 0 {
		t.Fatalf("probeFails = %d against an evicted peer, want 0", got)
	}

	// Recovery re-admits.
	unhealthy.Store(false)
	c.probePeer(peer)
	st = c.Stats()
	if st.AlivePeers != 1 || st.RingRejoins != 1 {
		t.Fatalf("after recovery: %d alive peers, %d rejoins; want the peer back", st.AlivePeers, st.RingRejoins)
	}
}

// TestJoinIdempotentAndRejoin covers Join's three verdicts directly:
// a brand-new peer joins (counted once), a live peer re-announcing is a
// no-op, and a dead peer announcing itself is a rejoin.
func TestJoinIdempotentAndRejoin(t *testing.T) {
	ts, _ := fakePeer(t)
	c, err := New(Options{Peers: []string{ts.URL}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	late, _ := fakePeer(t)
	if joined, err := c.Join(late.URL); err != nil || !joined {
		t.Fatalf("Join(new) = %v, %v; want joined", joined, err)
	}
	if joined, err := c.Join(late.URL); err != nil || joined {
		t.Fatalf("Join(live) = %v, %v; want no-op", joined, err)
	}
	st := c.Stats()
	if st.Peers != 2 || st.AlivePeers != 2 || st.RingJoins != 1 || st.RingRejoins != 0 {
		t.Fatalf("after join+re-join announce: %+v", st)
	}

	peer, _ := normalizePeer(late.URL)
	c.mu.Lock()
	c.shards[peer].alive = false
	c.mutateRing(ringRemove, peer)
	c.mu.Unlock()
	if joined, err := c.Join(late.URL); err != nil || !joined {
		t.Fatalf("Join(dead) = %v, %v; want rejoin", joined, err)
	}
	st = c.Stats()
	if st.AlivePeers != 2 || st.RingRejoins != 1 {
		t.Fatalf("after dead-peer announce: %+v", st)
	}

	if _, err := c.Join("not a url"); err == nil {
		t.Fatal("Join accepted a malformed peer address")
	}
}
