// Package experiment regenerates the paper's evaluation: Tables I-IV, the
// headline lifetime claims, and the partitioning-overhead discussion, all
// from the synthetic workloads and calibrated models of the sibling
// packages. Each runner returns structured results that the report
// formatters print side by side with the paper's published numbers.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/core"
	"nbticache/internal/engine"
	"nbticache/internal/index"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// Quality trades experiment fidelity against runtime.
type Quality int

const (
	// Quick generates short traces for tests and smoke runs (signature
	// error a few percentage points).
	Quick Quality = iota
	// Full is the reporting quality used for EXPERIMENTS.md.
	Full
)

// genParams maps quality to workload generation parameters.
func genParams(q Quality, g cache.Geometry) workload.GenParams {
	switch q {
	case Full:
		return workload.GenParams{Geometry: g, Phases: 640, AccessesPerPhase: 1024}
	default:
		return workload.GenParams{Geometry: g, Phases: 192, AccessesPerPhase: 512}
	}
}

// Suite owns the shared state of an experiment session: the calibrated
// aging model, the energy technology, and the simulation engine whose
// content-addressed cache memoises traces and runs. It is safe for
// concurrent use.
type Suite struct {
	Aging   *aging.Model
	Tech    power.Tech
	Quality Quality
	// Epochs is the service-life update count used for lifetime
	// projection.
	Epochs int
	// Reindex is the policy standing in for "dynamic indexing" in LT
	// columns (probing, per the paper's default; scrambling is de facto
	// identical — §IV-B2).
	Reindex index.Kind

	eng *engine.Engine
}

// NewSuite characterises the aging model and prepares a suite.
func NewSuite(q Quality) (*Suite, error) {
	model, err := aging.New(aging.DefaultConfig())
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Options{
		Model: model,
		Tech:  power.DefaultTech(),
		Gen:   func(g cache.Geometry) workload.GenParams { return genParams(q, g) },
	})
	if err != nil {
		return nil, err
	}
	return &Suite{
		Aging:   model,
		Tech:    power.DefaultTech(),
		Quality: q,
		Epochs:  core.DefaultServiceEpochs,
		Reindex: index.KindProbing,
		eng:     eng,
	}, nil
}

// Engine exposes the suite's simulation engine (shared caches, sweeps).
func (s *Suite) Engine() *engine.Engine { return s.eng }

// Close releases the engine's worker pool. Optional: a suite that only
// ever used the synchronous paths holds no goroutines.
func (s *Suite) Close() { s.eng.Close() }

// ClearRuns drops memoised simulation results (generated traces are
// kept). Benchmarks use it so every iteration re-simulates.
func (s *Suite) ClearRuns() { s.eng.ResetRuns() }

// Geometry builds the direct-mapped geometry used throughout the paper.
func Geometry(sizeKB int, lineB uint64) cache.Geometry {
	return cache.Geometry{
		Size:        uint64(sizeKB) * 1024,
		LineSize:    lineB,
		Ways:        1,
		AddressBits: 32,
	}
}

// Trace returns (generating and memoising) the benchmark's trace for a
// geometry. Concurrent callers generate each trace exactly once. The
// trace is the one the suite simulates, so callers must not modify it.
func (s *Suite) Trace(bench string, g cache.Geometry) (*trace.Trace, error) {
	return s.eng.Trace(context.Background(), bench, g)
}

// Run simulates (and memoises) a benchmark on a partitioned cache
// through the engine's content-addressed result cache. The identity
// policy is used: region statistics and energy are policy-independent,
// and re-indexing enters through the aging projection.
func (s *Suite) Run(bench string, g cache.Geometry, banks int) (*core.RunResult, error) {
	res, err := s.eng.RunJob(context.Background(), engine.JobSpec{
		Bench:     bench,
		SizeKB:    int(g.Size / 1024),
		LineBytes: int(g.LineSize),
		Banks:     banks,
		Policy:    string(index.KindIdentity),
		Epochs:    s.Epochs,
	})
	if err != nil {
		return nil, err
	}
	return res.Run, nil
}

// Lifetimes projects LT0 (identity) and LT (re-indexed) for a run.
func (s *Suite) Lifetimes(res *core.RunResult) (*core.AgingSummary, error) {
	return core.SummariseAging(s.Aging, res, s.Reindex, s.Epochs, aging.VoltageScaled)
}

// forEachBench applies fn to every benchmark profile concurrently,
// preserving per-index result slots; the first error aborts the batch.
func forEachBench(fn func(i int, bench string) error) error {
	names := workload.Names()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(names) {
		workers = len(names)
	}
	jobs := make(chan int)
	errs := make(chan error, len(names))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := fn(i, names[i]); err != nil {
					errs <- fmt.Errorf("%s: %w", names[i], err)
				}
			}
		}()
	}
	for i := range names {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}
