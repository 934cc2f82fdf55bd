// Package nbticache is a library-level reproduction of "Partitioned Cache
// Architectures for Reduced NBTI-Induced Aging" (Calimera, Loghi, Macii,
// Poncino — DATE 2011): an M-block uniformly partitioned SRAM cache whose
// bank-indexing function is re-shuffled over time (coarse-grain dynamic
// indexing) so that idleness — and with it NBTI recovery in the
// voltage-scaled low-power state — is distributed uniformly across banks,
// extending cache lifetime at no energy cost.
//
// The package is a façade over the internal implementation:
//
//   - Geometry/Config/PartitionedCache: the trace-driven simulator of the
//     partitioned architecture (decoder D, Block Control breakeven
//     counters, probing/scrambling re-indexing, per-bank tag stores).
//   - AgingModel: the 45nm 6T-cell characterisation (analytical device
//     models + reaction-diffusion NBTI) that converts measured idleness
//     into bank lifetimes, anchored at the paper's 2.93-year cell.
//   - Profiles/Generate: the 18 MediaBench-signature synthetic workloads.
//   - Suite: the experiment harness regenerating the paper's Tables I-IV.
//
// Quickstart:
//
//	model, _ := nbticache.NewAgingModel()
//	tr, _ := nbticache.GenerateTrace("sha", nbticache.Geometry16kB())
//	pc, _ := nbticache.New(nbticache.Config{
//		Geometry: nbticache.Geometry16kB(),
//		Banks:    4,
//		Policy:   nbticache.Probing,
//	})
//	res, _ := pc.Run(tr)
//	sum, _ := nbticache.Lifetimes(model, res)
//	fmt.Printf("LT0 %.2f years -> LT %.2f years\n", sum.LT0Years, sum.LTYears)
package nbticache

import (
	"context"
	"fmt"
	"io"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/cluster"
	"nbticache/internal/core"
	"nbticache/internal/engine"
	"nbticache/internal/experiment"
	"nbticache/internal/index"
	"nbticache/internal/mitigate"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// Core simulator types.
type (
	// Geometry is the cache organisation (size, line size, ways,
	// address width).
	Geometry = cache.Geometry
	// Config assembles a partitioned cache simulation.
	Config = core.Config
	// PartitionedCache is a live simulation instance.
	PartitionedCache = core.PartitionedCache
	// RunResult is the outcome of simulating one trace.
	RunResult = core.RunResult
	// MonolithicResult is the unmanaged non-partitioned reference run.
	MonolithicResult = core.MonolithicResult
	// AgingSummary compares monolithic, LT0 and LT lifetimes.
	AgingSummary = core.AgingSummary
	// Projection is a per-policy lifetime projection.
	Projection = core.Projection
	// AgingModel is the calibrated cell-aging characterisation.
	AgingModel = aging.Model
	// SleepMode selects voltage scaling or power gating.
	SleepMode = aging.SleepMode
	// Tech is the energy-model parameter set.
	Tech = power.Tech
	// EnergyBreakdown itemises a run's energy.
	EnergyBreakdown = power.Breakdown
	// Trace is an address trace, held as parallel columns.
	Trace = trace.Trace
	// Access is one trace record, as the streaming codecs exchange it.
	Access = trace.Access
	// WorkloadProfile is a synthetic benchmark description.
	WorkloadProfile = workload.Profile
	// GenParams controls trace generation.
	GenParams = workload.GenParams
	// PolicyKind names an indexing policy.
	PolicyKind = index.Kind
	// Suite is the experiment harness.
	Suite = experiment.Suite
	// TechniqueComparison is the related-work comparison table
	// (§II-B quantified).
	TechniqueComparison = experiment.TechniqueComparison
	// Flipping is the periodic content-inversion baseline ([11], [15]).
	Flipping = mitigate.Flipping
	// LineLevelResult is the [7] line-granularity baseline run.
	LineLevelResult = mitigate.LineLevelResult
	// Signature is a measured bank-idleness characterisation of a
	// trace (the Table-I view of a workload).
	Signature = workload.Signature
)

// Batch-simulation engine types (internal/engine). An Engine executes
// sweeps — sets of simulation points — on a bounded worker pool with
// content-addressed result caching; nbtiserved serves the same engine
// over HTTP.
type (
	// Engine is the concurrent batch-simulation engine.
	Engine = engine.Engine
	// EngineOptions configures NewEngine; the zero value is usable.
	EngineOptions = engine.Options
	// EngineStats is a snapshot of the engine counters.
	EngineStats = engine.Stats
	// JobSpec is one simulation point (workload × geometry × banks ×
	// policy × sleep mode).
	JobSpec = engine.JobSpec
	// JobResult is one point's outcome (run measurement + lifetime
	// projection, or an isolated error).
	JobResult = engine.JobResult
	// SweepSpec describes a set of jobs, explicit or cartesian.
	SweepSpec = engine.SweepSpec
	// SweepHandle tracks a submitted sweep (Status, Wait, Cancel).
	SweepHandle = engine.Handle
	// SweepStatus is a point-in-time sweep progress snapshot.
	SweepStatus = engine.SweepStatus
	// SweepResult is a finished sweep: one JobResult per job.
	SweepResult = engine.SweepResult
	// TraceInfo is an uploaded trace's stored view: content address,
	// shape, and the signature measured at admission.
	TraceInfo = engine.TraceInfo
	// TraceDecoder reads a trace incrementally from any wire format
	// (binary v1/v2 or text) in bounded memory.
	TraceDecoder = trace.Decoder
	// TraceEncoder writes a trace incrementally in the streaming binary
	// format (no up-front count or span needed).
	TraceEncoder = trace.Encoder
)

// Cluster types (internal/cluster). A Cluster shards sweeps across
// several nbtiserved instances: jobs route to the consistent-hash owner
// of their content address, referenced uploaded traces are forwarded to
// the owning shard on demand, per-shard results merge into one sweep,
// and a failed peer's jobs re-route to the next ring owner.
type (
	// Cluster is the sweep-sharding coordinator over nbtiserved peers.
	Cluster = cluster.Coordinator
	// ClusterOptions configures NewCluster (peer URLs are required).
	ClusterOptions = cluster.Options
	// ClusterHandle tracks a sharded sweep (Status, Wait, Cancel) —
	// the merged view of the per-shard sub-sweeps.
	ClusterHandle = cluster.Handle
	// ClusterStats is a snapshot of the routing counters, including
	// per-shard routed/retried/merged breakdowns.
	ClusterStats = cluster.Stats
	// ClusterRing is the consistent-hash ring assigning content
	// addresses to shard nodes with bounded remapping on membership
	// change.
	ClusterRing = cluster.Ring
)

// Indexing policies.
const (
	// Identity is the conventional partitioned cache (no re-indexing).
	Identity = index.KindIdentity
	// Probing rotates regions across banks (Fig. 3a).
	Probing = index.KindProbing
	// Scrambling XORs regions with an LFSR word (Fig. 3b).
	Scrambling = index.KindScrambling
)

// Sleep modes.
const (
	// VoltageScaled is the paper's retention low-power state.
	VoltageScaled = aging.VoltageScaled
	// PowerGated nullifies NBTI stress but loses state.
	PowerGated = aging.PowerGated
	// RecoveryBoosted nullifies stress while keeping state, at the
	// price of modifying every cell ([18]).
	RecoveryBoosted = aging.RecoveryBoosted
)

// Trace access kinds.
const (
	Read  = trace.Read
	Write = trace.Write
)

// Geometry16kB returns the paper's default configuration: 16 kB,
// 16 B lines, direct-mapped, 32-bit addresses.
func Geometry16kB() Geometry { return experiment.Geometry(16, 16) }

// NewGeometry builds a direct-mapped geometry of the given size.
func NewGeometry(sizeKB int, lineBytes uint64) Geometry {
	return experiment.Geometry(sizeKB, lineBytes)
}

// New builds a partitioned cache simulator.
func New(cfg Config) (*PartitionedCache, error) { return core.New(cfg) }

// RunMonolithic simulates the conventional unmanaged cache.
func RunMonolithic(g Geometry, tech Tech, tr *Trace) (*MonolithicResult, error) {
	return core.RunMonolithic(g, tech, tr)
}

// NewAgingModel characterises the default 45nm technology (calibrated to
// the paper's 2.93-year unmanaged cell lifetime).
func NewAgingModel() (*AgingModel, error) { return aging.New(aging.DefaultConfig()) }

// DefaultTech returns the calibrated energy model.
func DefaultTech() Tech { return power.DefaultTech() }

// Benchmarks lists the 18 paper benchmarks in table order.
func Benchmarks() []string { return workload.Names() }

// Profile returns a benchmark's workload profile.
func Profile(name string) (WorkloadProfile, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return WorkloadProfile{}, fmt.Errorf("nbticache: unknown benchmark %q (see Benchmarks())", name)
	}
	return p, nil
}

// GenerateTrace produces a benchmark's synthetic trace for a geometry
// with default generation parameters.
func GenerateTrace(benchmark string, g Geometry) (*Trace, error) {
	p, err := Profile(benchmark)
	if err != nil {
		return nil, err
	}
	return p.Generate(workload.DefaultGenParams(g))
}

// Lifetimes projects the LT0 (no re-indexing) and LT (probing) lifetimes
// for a run, using the paper's defaults (voltage-scaled sleep, daily
// updates over the service life, p0 = 0.5).
func Lifetimes(model *AgingModel, res *RunResult) (*AgingSummary, error) {
	return core.SummariseAging(model, res, Probing, core.DefaultServiceEpochs, VoltageScaled)
}

// ProjectAging folds measured per-region sleep duties through a policy's
// long-term bank-hosting shares and returns per-bank lifetimes.
func ProjectAging(model *AgingModel, regionSleep []float64, policy PolicyKind, epochs int, mode SleepMode) (*Projection, error) {
	return core.ProjectAging(model, regionSleep, policy, epochs, mode)
}

// NewEngine builds the concurrent batch-simulation engine. The zero
// options select a GOMAXPROCS-sized worker pool, the calibrated default
// models, reporting-quality traces, and a memory-only result cache.
// Set EngineOptions.DataDir to persist completed job results and
// uploaded traces to a content-addressed disk store: a later engine on
// the same directory lists the traces again and serves previously
// simulated jobs without re-simulating (cmd/nbtiserved exposes the
// same switch as -data-dir).
func NewEngine(o EngineOptions) (*Engine, error) { return engine.New(o) }

// Sweep submits a sweep to the engine and blocks until every job has
// resolved (failures are isolated per job, never aborting the batch).
// For asynchronous submission and polling use Engine.Submit directly, or
// run cmd/nbtiserved and drive it over HTTP.
func Sweep(ctx context.Context, e *Engine, spec SweepSpec) (*SweepResult, error) {
	h, err := e.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	if err != nil {
		// The handle is about to be dropped; stop its jobs so an
		// abandoned sweep does not keep occupying the worker pool.
		h.Cancel()
		return nil, err
	}
	return res, nil
}

// NewCluster builds a sweep-sharding coordinator over running
// nbtiserved peers (cmd/nbtiserved node instances, or anything serving
// the same API). Shards must be configured identically — job IDs hash
// the spec, not the node configuration. cmd/nbtiserved exposes the same
// coordinator over HTTP via -peers.
func NewCluster(o ClusterOptions) (*Cluster, error) { return cluster.New(o) }

// ClusterSweep submits a sweep to the cluster and blocks until the
// merged result is complete: jobs are split across the shards by
// content-address ownership, identical jobs still simulate exactly once
// cluster-wide (each shard's content-addressed cache covers its share
// of the keyspace), and per-job failures are isolated. For asynchronous
// submission and polling use Cluster.Submit directly.
func ClusterSweep(ctx context.Context, c *Cluster, spec SweepSpec) (*SweepResult, error) {
	return c.Sweep(ctx, spec)
}

// NewClusterRing builds a consistent-hash ring directly, for callers
// that want the keyspace-partitioning primitive without a coordinator.
// replicas <= 0 selects the default virtual-node count.
func NewClusterRing(replicas int, nodes ...string) *ClusterRing {
	return cluster.NewRing(replicas, nodes...)
}

// NewSuite prepares the experiment harness. quick selects short traces
// (smoke quality) instead of reporting quality.
func NewSuite(quick bool) (*Suite, error) {
	q := experiment.Full
	if quick {
		q = experiment.Quick
	}
	return experiment.NewSuite(q)
}

// WriteTechniqueComparison renders a technique-comparison table.
func WriteTechniqueComparison(w io.Writer, t *TechniqueComparison) error {
	return experiment.WriteTechniqueComparison(w, t)
}

// RunLineLevel replays a trace under line-granularity power management
// (the [7] baseline). A zero breakeven derives the threshold from the
// energy model.
func RunLineLevel(g Geometry, tech Tech, tr *Trace, breakeven uint64) (*LineLevelResult, error) {
	return mitigate.RunLineLevel(g, tech, tr, breakeven)
}

// MeasureSignature characterises any trace's bank-idleness signature —
// the onboarding path for real traces: measure, then Signature.ToProfile
// to synthesise statistically matching workloads of any length.
func MeasureSignature(tr *Trace, g Geometry, banks int, breakeven uint64) (*Signature, error) {
	return workload.MeasureSignature(tr, g, banks, breakeven)
}

// UploadTrace admits a real address trace into an engine's
// content-addressed trace store: the trace is validated, deduplicated by
// content address, and measured (MeasureSignature) on the way in.
// existed reports an idempotent re-upload. The returned TraceInfo.ID
// references the trace in JobSpec.TraceID / SweepSpec.TraceIDs as a
// first-class alternative to the synthetic benchmarks; cmd/nbtiserved
// exposes the same admission over HTTP at POST /v1/traces.
func UploadTrace(e *Engine, tr *Trace) (info TraceInfo, existed bool, err error) {
	return e.AddTrace(tr)
}

// TraceContentID computes a trace's content address without storing it:
// equal traces hash to equal IDs on every node.
func TraceContentID(tr *Trace) (string, error) {
	id, _, err := engine.TraceContentID(tr)
	return id, err
}

// NewTraceDecoder reads a trace stream, auto-detecting the wire format
// (binary if it opens with the codec magic, text otherwise). Decoding is
// incremental: memory is bounded by the decoder's chunk buffering, never
// by header-claimed counts.
func NewTraceDecoder(r io.Reader) (*TraceDecoder, error) { return trace.NewDecoder(r) }

// NewTraceEncoder starts a streaming binary trace encoding; write
// accesses as they happen and Close with the final cycle span (0 infers
// the minimal one).
func NewTraceEncoder(w io.Writer, name string) (*TraceEncoder, error) {
	return trace.NewEncoder(w, name)
}

// ReadTrace decodes a complete trace from any wire format.
func ReadTrace(r io.Reader) (*Trace, error) {
	d, err := trace.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return d.ReadAll(0)
}

// WriteTrace encodes a trace in the streaming binary format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.EncodeStream(w, tr) }
