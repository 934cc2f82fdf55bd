package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"nbticache/internal/engine"
)

// DefaultHealthInterval paces the membership health-check loop when
// Options.HealthInterval is zero.
const DefaultHealthInterval = 2 * time.Second

// DefaultEvictAfterProbes is how many consecutive failed health probes
// evict a live peer when Options.EvictAfterProbes is zero. Two is the
// floor (one failure is indistinguishable from a dropped packet); three
// tolerates a GC pause or a brief listener restart.
const DefaultEvictAfterProbes = 3

// maxConcurrentReplicas bounds replica write-throughs in flight across
// all sweeps: each carries a full job result body, and replication is
// best-effort background work that must not starve dispatch.
const maxConcurrentReplicas = 4

// ringOp names a guarded live-ring mutation.
type ringOp int

const (
	ringAdd ringOp = iota
	ringRemove
)

// mutateRing is the ONLY place the coordinator's live ring is mutated
// (per-sweep snapshots from ringSnapshot are fair game — they are
// clones). Concentrating Add/Remove here keeps every membership change
// on one audited path; the ringchurn analyzer enforces it. The caller
// must hold c.mu.
func (c *Coordinator) mutateRing(op ringOp, peer string) {
	switch op {
	case ringAdd:
		c.ring.Add(peer)
	case ringRemove:
		c.ring.Remove(peer)
	}
}

// Join admits a peer at runtime: a brand-new peer is added to the ring
// immediately, a known-but-evicted peer is re-admitted, and a live one
// is a no-op. joined reports whether the ring changed. Pending slots
// the peer now owns go to it on their sweep's next routing round, and
// its result cache answers the ones it already holds.
func (c *Coordinator) Join(peer string) (joined bool, err error) {
	p, err := normalizePeer(peer)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return false, fmt.Errorf("cluster: coordinator closed")
	}
	st := c.shards[p]
	switch {
	case st == nil:
		c.shards[p] = &shardState{alive: true}
		c.mutateRing(ringAdd, p)
		c.ringJoins.Add(1)
		joined = true
	case !st.alive:
		st.alive = true
		st.probeFails = 0
		c.mutateRing(ringAdd, p)
		c.ringRejoins.Add(1)
		joined = true
	}
	alive := c.ring.Len()
	c.mu.Unlock()
	if joined {
		c.log.Info("peer joined ring", "peer", p, "peers_alive", alive)
	}
	return joined, nil
}

// healthLoop periodically probes every known peer — evicted ones
// included, which is how a recovered peer finds its way back into the
// ring without operator action.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.health)
	defer ticker.Stop()
	for {
		select {
		case <-c.lifeCtx.Done():
			return
		case <-ticker.C:
			c.probePeers()
		}
	}
}

// probePeers probes every known peer concurrently and waits for the
// round to finish, so probe rounds never pile up behind a slow peer.
func (c *Coordinator) probePeers() {
	c.mu.Lock()
	peers := make([]string, 0, len(c.shards))
	for p := range c.shards {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			c.probePeer(p)
		}(p)
	}
	wg.Wait()
}

// probePeer health-checks one peer and applies the membership verdict:
// a healthy evicted peer rejoins, a healthy live peer has its failure
// streak reset, and a live peer failing its evictAfter'th consecutive
// probe is evicted. One failed probe alone never evicts — that is the
// regression the transient-5xx test pins.
func (c *Coordinator) probePeer(peer string) {
	timeout := c.health
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(c.lifeCtx, timeout)
	err := c.client.health(ctx, peer)
	cancel()
	healthy := err == nil

	c.mu.Lock()
	st := c.shards[peer]
	if st == nil {
		c.mu.Unlock()
		return
	}
	switch {
	case healthy && !st.alive:
		st.alive = true
		st.probeFails = 0
		c.mutateRing(ringAdd, peer)
		c.ringRejoins.Add(1)
		alive := c.ring.Len()
		c.mu.Unlock()
		c.log.Info("peer recovered, rejoining ring", "peer", peer, "peers_alive", alive)
	case healthy:
		st.probeFails = 0
		c.mu.Unlock()
	case !st.alive:
		c.mu.Unlock()
	default:
		st.probeFails++
		if st.probeFails >= c.evictAfter {
			st.alive = false
			st.probeFails = 0
			c.mutateRing(ringRemove, peer)
			c.peerFailures.Add(1)
			alive := c.ring.Len()
			c.mu.Unlock()
			c.log.Warn("evicting unresponsive peer from ring",
				"peer", peer, "peers_alive", alive, "probe_error", err)
			return
		}
		fails := st.probeFails
		c.mu.Unlock()
		c.log.Warn("health probe failed (not evicting yet)",
			"peer", peer, "consecutive_failures", fails, "evict_after", c.evictAfter, "probe_error", err)
	}
}

// mergeResult is the single merge path, fed by the shard streams: it
// records a result into its slot exactly once, keeps the global and
// per-shard counters coherent — counting before the record, which can
// release Wait — and kicks off the replica write-through for successful
// results.
func (c *Coordinator) mergeResult(h *Handle, slot int, peer string, res *engine.JobResult) {
	taken := h.resolve(slot, res, func() {
		c.jobsMerged.Add(1)
		c.eventsStreamed.Add(1)
		c.mu.Lock()
		if st := c.shards[peer]; st != nil {
			st.merged++
		}
		c.mu.Unlock()
	})
	if taken && res.Err == "" && !res.Canceled {
		c.replicateResult(peer, res)
	}
}

// replicateResult writes a merged job result through to its other ring
// owners (Options.OwnerReplicas total, the dispatch source counting as
// one), so the result survives the source node dying. Asynchronous and
// best-effort: replication failures are counted, never surfaced to the
// sweep — the authoritative copy already merged.
func (c *Coordinator) replicateResult(src string, res *engine.JobResult) {
	if c.replicas <= 1 {
		return
	}
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return
	}
	targets := make([]string, 0, c.replicas)
	for _, p := range c.ring.Owners(res.ID, c.replicas) {
		if p != src {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		c.mu.Unlock()
		return
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		for _, target := range targets {
			select {
			case c.replicaSlots <- struct{}{}:
			case <-c.lifeCtx.Done():
				return
			}
			ctx, cancel := context.WithTimeout(c.lifeCtx, 30*time.Second)
			err := c.client.putJob(ctx, target, res)
			cancel()
			<-c.replicaSlots
			if err != nil {
				c.replicaWriteFailures.Add(1)
				c.log.Warn("replica write-through failed",
					"job", res.ID, "target", target, "error", err)
				continue
			}
			c.replicaWrites.Add(1)
		}
	}()
}

// JoinRequest is the POST /v1/cluster/join body: the announcing node's
// advertised base URL.
type JoinRequest struct {
	Peer string `json:"peer"`
}

// JoinResponse reports the join verdict.
type JoinResponse struct {
	// Joined is true when the ring changed (new peer or rejoin), false
	// when the peer was already a live member.
	Joined bool `json:"joined"`
	// Peers is the live-member count after the join.
	Peers int `json:"peers"`
}

// Announce posts one join announcement for self to a coordinator's
// join endpoint. Nodes call it (with retry) at startup when -join
// names a coordinator; hc nil uses a short-timeout default.
func Announce(ctx context.Context, hc *http.Client, coordinator, self string) error {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	coordinator, err := normalizePeer(coordinator)
	if err != nil {
		return err
	}
	body, err := json.Marshal(JoinRequest{Peer: self})
	if err != nil {
		return err
	}
	sc := &shardClient{hc: hc}
	return sc.doJSON(ctx, http.MethodPost, coordinator+"/v1/cluster/join",
		body, "application/json", nil)
}
