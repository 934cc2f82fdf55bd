package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"nbticache/internal/aging"
	"nbticache/internal/core"
	"nbticache/internal/engine"
	"nbticache/internal/index"
	"nbticache/internal/trace"
)

// gate is the correctness check on served results: round 0 is kept
// whole and every later round must serve the same statistics for every
// job.
type gate struct {
	round0  []servedJob // sorted by key
	digests map[string]string
	// accesses is each job's simulated access count, read from round 0
	// (later rounds serve the same statistics or fail the gate).
	accesses   map[string]uint64
	mismatches int
	err        error // the first mismatch
}

func (g *gate) fail(err error) {
	g.mismatches++
	if g.err == nil {
		g.err = err
	}
}

func (g *gate) observe(out *sweepOut) {
	if g.digests == nil {
		g.digests = make(map[string]string, len(out.jobs))
		g.accesses = make(map[string]uint64, len(out.jobs))
		g.round0 = append([]servedJob(nil), out.jobs...)
		sort.Slice(g.round0, func(i, j int) bool { return g.round0[i].key() < g.round0[j].key() })
		for _, j := range out.jobs {
			if j.failed {
				g.fail(fmt.Errorf("round 0 job %s failed", j.key()))
				continue
			}
			g.digests[j.key()] = j.digest()
			var n struct{ Reads, Writes uint64 }
			if err := json.Unmarshal(j.run, &n); err != nil {
				g.fail(fmt.Errorf("round 0 job %s: %w", j.key(), err))
			}
			g.accesses[j.key()] = n.Reads + n.Writes
		}
		return
	}
	if len(out.jobs) != len(g.digests) {
		g.fail(fmt.Errorf("round served %d jobs, round 0 served %d", len(out.jobs), len(g.digests)))
	}
	for _, j := range out.jobs {
		if d, ok := g.digests[j.key()]; !ok || d != j.digest() {
			g.fail(fmt.Errorf("job %s differs from round 0", j.key()))
		}
	}
}

// resultsDigest condenses round 0's statistics into one hash, so two
// commits can be compared without the full results.
func (g *gate) resultsDigest() string {
	h := sha256.New()
	for _, j := range g.round0 {
		fmt.Fprintf(h, "%s=%s\n", j.key(), g.digests[j.key()])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// verifyReference checks round 0 against the in-process row reference
// (core.New and Run, then ProjectAging) bit for bit, and for cluster
// also against one memory-only node running the same jobs.
func (b *bench) verifyReference() error {
	rows := make(map[string]*trace.Trace)
	var single *engine.Engine
	if b.cfg.workload == "cluster" {
		var err error
		single, err = engine.New(engine.Options{Workers: 1, Model: b.model, Gen: b.in.gen})
		if err != nil {
			return err
		}
		defer single.Close()
	}
	for _, j := range b.gate.round0 {
		tr, ok := rows[j.label]
		if !ok {
			var err error
			if tr, err = b.traceFor(j.label); err != nil {
				return err
			}
			rows[j.label] = tr
		}
		run, proj, err := reference(b.model, tr, j.banks, j.policy)
		if err != nil {
			return err
		}
		if err := sameResult(j, run, proj, "row reference"); err != nil {
			b.gate.fail(err)
		}
		if single != nil {
			res, err := single.RunJob(context.Background(), engine.JobSpec{Bench: j.label, Banks: j.banks, Policy: j.policy})
			if err != nil {
				return err
			}
			if err := sameResult(j, res.Run, res.Projection, "single node"); err != nil {
				b.gate.fail(err)
			}
		}
	}
	return nil
}

// reference simulates one job on the row path and projects its aging,
// with the engine's defaults for everything the job spec leaves out.
func reference(model *aging.Model, tr *trace.Trace, banks int, policy string) (*core.RunResult, *core.Projection, error) {
	kind := index.Kind(policy)
	pc, err := core.New(core.Config{Geometry: geometry(), Banks: banks, Policy: kind})
	if err != nil {
		return nil, nil, err
	}
	run, err := pc.Run(tr)
	if err != nil {
		return nil, nil, err
	}
	proj, err := core.ProjectAging(model, run.RegionSleepFractions(), kind, core.DefaultServiceEpochs, aging.VoltageScaled)
	return run, proj, err
}

// sameResult compares a served job with a computed run and projection
// through their JSON encodings, which are exact for finite floats.
func sameResult(j servedJob, run *core.RunResult, proj *core.Projection, what string) error {
	rj, err := json.Marshal(run)
	if err != nil {
		return err
	}
	pj, err := json.Marshal(proj)
	if err != nil {
		return err
	}
	if !bytes.Equal(rj, j.run) || !bytes.Equal(pj, j.proj) {
		return fmt.Errorf("job %s: served result differs from the %s", j.key(), what)
	}
	return nil
}
