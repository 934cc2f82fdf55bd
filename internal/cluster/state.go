package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"nbticache/internal/cas"
	"nbticache/internal/engine"
)

// Sweep-state blob framing: a 4-byte magic, a version byte, then the
// JSON-encoded sweepState. The payload is JSON rather than the trace
// blobs' packed columns because sweep state is tiny (a handle ID and a
// spec), written once per sweep — framing discipline matters here,
// encoding density does not. Version 1 blobs written when the state
// also listed shard assignments and merged job IDs ("assign",
// "merged") still decode: json.Unmarshal skips the unknown keys.
const (
	stateBlobMagic   = "NBSS"
	stateBlobVersion = 1
)

// ErrBadState marks a sweep-state blob that cannot be decoded: wrong
// magic, unknown version, truncation, malformed payload, or a payload
// whose re-derived content address mismatches the key it was stored
// under. Resume quarantines such blobs (deletes them and continues)
// rather than resurrecting a sweep from bytes it cannot trust.
var ErrBadState = errors.New("cluster: bad sweep-state blob")

// sweepState is one in-flight sweep's persistable checkpoint: enough
// for a restarted coordinator to rebuild the handle and re-dispatch
// every job. Neither field changes over the sweep's life, and the jobs
// merged before the restart cost no simulation: their owners' result
// caches answer the re-dispatch.
type sweepState struct {
	// Handle is the sweep's public ID ("csweep-N"); Resume reuses it so
	// clients polling across the restart keep their handle.
	Handle string `json:"handle"`
	// Spec is the submitted spec, verbatim — Expand is deterministic,
	// so the restarted coordinator rebuilds the identical job list.
	Spec engine.SweepSpec `json:"spec"`
}

// stateKey derives a sweep's state-blob key from its spec's canonical
// JSON — content-addressed like everything else in the CAS, so decode
// can re-derive it and reject a blob claiming to be a sweep it is not.
// Two sweeps with byte-equal specs share a key; their checkpoints are
// interchangeable by construction.
func stateKey(spec engine.SweepSpec) string {
	canon, err := json.Marshal(spec)
	if err != nil {
		// SweepSpec is plain data (strings, ints, slices); Marshal
		// cannot fail on it. Keep the signature clean.
		panic(fmt.Sprintf("cluster: marshaling sweep spec: %v", err))
	}
	sum := sha256.Sum256(canon)
	return "sweep-" + hex.EncodeToString(sum[:8])
}

// encodeSweepState frames a checkpoint for the CAS.
func encodeSweepState(st sweepState) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	blob := make([]byte, 0, len(stateBlobMagic)+1+len(payload))
	blob = append(blob, stateBlobMagic...)
	blob = append(blob, stateBlobVersion)
	return append(blob, payload...), nil
}

// decodeSweepState parses a sweep-state blob stored under key, with the
// same error-chain discipline as the job/trace codecs: every failure is
// ErrBadState, wrapping the cause where there is one, and the payload's
// re-derived content address must match the key it was filed under.
func decodeSweepState(key string, blob []byte) (sweepState, error) {
	if len(blob) < len(stateBlobMagic)+1 {
		return sweepState{}, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadState, len(blob))
	}
	if string(blob[:len(stateBlobMagic)]) != stateBlobMagic {
		return sweepState{}, fmt.Errorf("%w: bad magic %q", ErrBadState, blob[:len(stateBlobMagic)])
	}
	if v := blob[len(stateBlobMagic)]; v != stateBlobVersion {
		return sweepState{}, fmt.Errorf("%w: unsupported version %d", ErrBadState, v)
	}
	var st sweepState
	if err := json.Unmarshal(blob[len(stateBlobMagic)+1:], &st); err != nil {
		return sweepState{}, fmt.Errorf("%w: %w", ErrBadState, err)
	}
	if st.Handle == "" {
		return sweepState{}, fmt.Errorf("%w: missing handle ID", ErrBadState)
	}
	if derived := stateKey(st.Spec); derived != key {
		return sweepState{}, fmt.Errorf("%w: content address %s does not match key %s", ErrBadState, derived, key)
	}
	return st, nil
}

// checkpoint writes a sweep's state blob when its routing loop starts
// and returns the settle to run when the loop ends: a deliberately
// cancelled or cleanly completed sweep deletes its blob; a sweep settled
// by coordinator shutdown keeps it — that blob is exactly what the next
// coordinator's Resume picks up. Both are no-ops without DataDir.
func (c *Coordinator) checkpoint(h *Handle) (settle func()) {
	if c.stateStore == nil {
		return func() {}
	}
	key := stateKey(h.Spec)
	blob, err := encodeSweepState(sweepState{Handle: h.ID, Spec: h.Spec})
	if err == nil {
		err = c.stateStore.Put(key, blob)
	}
	if err != nil {
		c.log.Warn("sweep-state checkpoint failed", "sweep_id", h.ID, "error", err)
	}
	return func() {
		// A client's cancel is final, so resuming would countermand it;
		// a sweep with no cancelled slot finished. Only a shutdown
		// settle leaves the resume point.
		if h.Cancelled() || h.Status().Canceled == 0 {
			// Not found: the write above failed, or a sweep with a
			// byte-equal spec shared the key and settled first.
			if err := c.stateStore.Delete(key); err != nil && !errors.Is(err, cas.ErrNotFound) {
				c.log.Warn("sweep-state delete failed; a restart resumes the sweep", "sweep_id", h.ID, "error", err)
			}
		}
	}
}

// Resume rebuilds the sweeps a previous coordinator's shutdown (or
// crash) left checkpointed in DataDir and restarts their routing loops:
// every job re-dispatches on the live ring, and the owners' result
// caches answer the ones merged before the restart.
// Undecodable blobs are quarantined (deleted, logged, skipped) — cf.
// the disk CAS, which already quarantines checksum-corrupt files below
// this layer. Call it once, after New and before serving; the returned
// handles are live (pass them to Server.Adopt so clients can poll
// them).
func (c *Coordinator) Resume(ctx context.Context) ([]*Handle, error) {
	if c.stateStore == nil {
		return nil, nil
	}
	stats, err := c.stateStore.List()
	if err != nil {
		return nil, fmt.Errorf("cluster: listing sweep state: %w", err)
	}
	var handles []*Handle
	for _, stat := range stats {
		blob, err := c.stateStore.Get(stat.Key)
		if err != nil {
			c.log.Warn("unreadable sweep-state blob, skipping", "key", stat.Key, "error", err)
			continue
		}
		st, err := decodeSweepState(stat.Key, blob)
		if err != nil {
			c.log.Warn("quarantining bad sweep-state blob", "key", stat.Key, "error", err)
			_ = c.stateStore.Delete(stat.Key)
			continue
		}
		h, err := c.resumeSweep(ctx, st)
		if err != nil {
			c.log.Warn("cannot resume sweep", "sweep_id", st.Handle, "error", err)
			_ = c.stateStore.Delete(stat.Key)
			continue
		}
		handles = append(handles, h)
	}
	return handles, nil
}

// resumeSweep rebuilds one checkpointed sweep and restarts its routing
// loop.
func (c *Coordinator) resumeSweep(ctx context.Context, st sweepState) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jobs, err := st.Spec.Expand()
	if err != nil {
		return nil, fmt.Errorf("re-expanding spec: %w", err)
	}
	// Reusing the persisted handle ID keeps pre-restart clients' polls
	// working; bumping seq past it keeps new submissions from colliding.
	if n, err := strconv.ParseUint(strings.TrimPrefix(st.Handle, "csweep-"), 10, 64); err == nil {
		for {
			cur := c.seq.Load()
			if cur >= n || c.seq.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	_, span := c.tel.Tracer.StartSpan(ctx, "coordinator.sweep",
		"sweep_id", st.Handle, "jobs", itoa(len(jobs)), "resumed", "true")
	h := newHandle(engine.NewHandle(c.lifeCtx, st.Handle, st.Spec, jobs, span, nil))
	if err := c.start(h); err != nil {
		return nil, err
	}
	c.sweepsResumed.Add(1)
	return h, nil
}
