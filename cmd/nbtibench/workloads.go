package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/engine"
	"nbticache/internal/index"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"grid", "upload", "warm", "cluster"}

// defaultSeconds is each workload's measured time when -seconds is 0:
// enough rounds for a p90 with ten samples beyond it.
var defaultSeconds = map[string]float64{"grid": 25, "upload": 25, "warm": 15, "cluster": 25}

const (
	// setupRepeats is how many times a run sets its system up; setup_s
	// is their median. Only the last setup stays up to be measured.
	setupRepeats = 3
	// warmupRounds unmeasured rounds end each setup.
	warmupRounds = 3
	gridBenches  = 6
	uploadTraces = 8
	clusterNodes = 3
)

// gridBanks and gridPolicies are the axes of the 54-job grid sweep.
var (
	gridBanks    = []int{2, 4, 8}
	gridPolicies = []string{string(index.KindIdentity), string(index.KindProbing), string(index.KindScrambling)}
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0" off, "1" on, anything else: on, spans written there
	tmp      string // parent directory of the run's data directories
	// quick shrinks every trace and sets up and warms up once, so the
	// smoke test covers every code path in a few seconds.
	quick bool
}

func (c config) traced() bool { return c.trace != "" && c.trace != "0" }

// inputs are a run's seeded inputs: what the program receives.
type inputs struct {
	benches []string           // grid, warm, cluster
	uploads []workload.Profile // upload: profiles with seeded generator seeds
	spec    engine.SweepSpec   // the bench sweep (grid, warm, cluster)
	// gen maps a geometry to trace-generation parameters: the node
	// engines' setting, and the upload traces' size.
	gen func(cache.Geometry) workload.GenParams
}

func genParams(phases, perPhase int) func(cache.Geometry) workload.GenParams {
	return func(g cache.Geometry) workload.GenParams {
		return workload.GenParams{Geometry: g, Phases: phases, AccessesPerPhase: perPhase}
	}
}

// chooseInputs derives a workload's inputs from the seed: a seeded
// shuffle of the paper's benchmarks picks the grid's six, and of the
// profiles (with fresh generator seeds) the eight uploads.
func chooseInputs(name string, seed int64, quick bool) inputs {
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	profiles := workload.Profiles()
	rng.Shuffle(len(profiles), func(i, j int) { profiles[i], profiles[j] = profiles[j], profiles[i] })
	in := inputs{benches: names[:gridBenches], uploads: profiles[:uploadTraces]}
	for i := range in.uploads {
		in.uploads[i].Seed = rng.Int63()
	}
	in.spec = engine.SweepSpec{Benches: in.benches, Banks: gridBanks, Policies: gridPolicies}
	switch {
	case quick:
		in.gen = genParams(32, 256)
	case name == "cluster":
		in.gen = genParams(192, 512) // nbtiserved -quick
	case name == "upload":
		in.gen = genParams(95, 1024) // ~97k accesses, ~420 KB encoded
	default:
		in.gen = workload.DefaultGenParams
	}
	return in
}

// uploadSpec is the upload workload's sweep: each trace once, at the
// paper's default point.
func uploadSpec(traceIDs []string) engine.SweepSpec {
	return engine.SweepSpec{TraceIDs: traceIDs, Banks: []int{4}, Policies: []string{string(index.KindProbing)}}
}

// geometry is the cache every job of every workload simulates: the
// job-spec default.
func geometry() cache.Geometry { return engine.JobSpec{}.Geometry() }

// bench is one workload's benchmark process state.
type bench struct {
	cfg     config
	in      inputs
	workers int
	model   *aging.Model
	sys     *system
	cl      *client
	// bodies are the upload workload's pre-encoded traces; nameAt[i] is
	// the offset of the round number inside bodies[i]'s header name.
	bodies [][]byte
	nameAt []int
	seq    int // rounds served so far, the upload name counter
	gate   gate
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, in: chooseInputs(cfg.workload, cfg.seed, cfg.quick), workers: runtime.NumCPU()}
}

// inputLabels names the workload's traces as job keys do: the bench
// names, or t<i> for the i-th upload.
func (b *bench) inputLabels() []string {
	if b.cfg.workload != "upload" {
		return b.in.benches
	}
	labels := make([]string, len(b.in.uploads))
	for i := range labels {
		labels[i] = "t" + strconv.Itoa(i)
	}
	return labels
}

// input resolves a job label to the profile generating its trace.
func (b *bench) input(label string) (workload.Profile, error) {
	if p, ok := workload.ByName(label); ok {
		return p, nil
	}
	i, err := strconv.Atoi(strings.TrimPrefix(label, "t"))
	if err != nil || i < 0 || i >= len(b.in.uploads) {
		return workload.Profile{}, fmt.Errorf("unknown job input %q", label)
	}
	return b.in.uploads[i], nil
}

// traceFor generates the trace behind a job label exactly as the system
// first received it: a bench's generated trace, or an upload under its
// round-0 name. The upload names are fixed width (up<i>-r<round>), so
// each round patches the digits in place.
func (b *bench) traceFor(label string) (*trace.Trace, error) {
	p, err := b.input(label)
	if err != nil {
		return nil, err
	}
	tr, err := p.Generate(b.in.gen(geometry()))
	if err != nil {
		return nil, err
	}
	if b.cfg.workload == "upload" {
		tr.Name = fmt.Sprintf("up%s-r%010d", label[1:], 0)
	}
	return tr, nil
}

// setup builds the workload's system from nothing and warms it up.
func (b *bench) setup(k int) error {
	// Characterised afresh each time (the engine would share one
	// process-wide), so every setup pays what a fresh process pays.
	model, err := aging.New(aging.DefaultConfig())
	if err != nil {
		return err
	}
	b.model = model
	dir := filepath.Join(b.cfg.tmp, "setup"+strconv.Itoa(k))
	opts := engine.Options{Workers: b.workers, Model: model, Gen: b.in.gen}
	var n *node
	switch b.cfg.workload {
	case "grid":
		n, err = startNode(opts)
	case "upload":
		if err := b.encodeUploads(); err != nil {
			return err
		}
		opts.DataDir = dir
		n, err = startNode(opts)
	case "warm":
		opts.DataDir = dir
		n, err = startNode(opts)
	case "cluster":
		opts.Workers = 1
		b.sys, err = startCluster(dir, clusterNodes, opts)
	default:
		return fmt.Errorf("unknown workload %q (have %v)", b.cfg.workload, workloadNames)
	}
	if err != nil {
		return err
	}
	if n != nil {
		b.sys = &system{nodes: []*node{n}, dir: dir}
	}
	b.cl = newClient(b.sys.url())
	if b.cfg.workload == "warm" {
		// Pre-fill the data directory with the grid's results.
		if _, err := b.cl.sweep(b.in.spec, nil, false); err != nil {
			return err
		}
		n.eng.Drain()
	}
	warmups := warmupRounds
	if b.cfg.quick {
		warmups = 1
	}
	for i := 0; i < warmups; i++ {
		if _, err := b.round(nil, 0, false); err != nil {
			return fmt.Errorf("warm-up round: %w", err)
		}
	}
	return nil
}

// encodeUploads generates and binary-encodes the upload traces.
func (b *bench) encodeUploads() error {
	b.bodies, b.nameAt = nil, nil
	for _, label := range b.inputLabels() {
		tr, err := b.traceFor(label)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tr); err != nil {
			return err
		}
		body := buf.Bytes()
		b.bodies = append(b.bodies, body)
		b.nameAt = append(b.nameAt, bytes.Index(body, []byte(tr.Name))+len(tr.Name)-10)
	}
	return nil
}

func (b *bench) teardown() error {
	if b.sys == nil {
		return nil
	}
	b.cl.close()
	err := b.sys.close()
	b.sys = nil
	return err
}

// roundStat is one closed-loop round.
type roundStat struct {
	roundMs float64
	out     *sweepOut
}

// round runs one closed-loop round: the workload's preparation (reset,
// uploads or reopen), the sweep, and the upload deletes. t records the
// preparation's spans under parent when tracing; capture keeps the
// event stream's bytes.
func (b *bench) round(t *tracer, parent int, capture bool) (*roundStat, error) {
	start := time.Now()
	spec, labels, err := b.prep(t, parent)
	if err != nil {
		return nil, err
	}
	rs := &roundStat{}
	rs.out, err = b.cl.sweep(spec, labels, capture)
	if err != nil {
		return nil, err
	}
	for _, id := range spec.TraceIDs {
		if err := b.cl.deleteTrace(id); err != nil {
			return nil, err
		}
	}
	rs.roundMs = msSince(start)
	b.gate.observe(rs.out)
	b.seq++
	return rs, nil
}

// prep readies the system for the next sweep and returns that sweep.
func (b *bench) prep(t *tracer, parent int) (engine.SweepSpec, map[string]string, error) {
	switch b.cfg.workload {
	case "warm":
		err := t.do(parent, "engine.reopen", 1, func() error { return b.sys.nodes[0].reopen() })
		return b.in.spec, nil, err
	case "upload":
		var spec engine.SweepSpec
		labels := make(map[string]string, len(b.bodies))
		digits := fmt.Sprintf("%010d", b.seq)
		for i, body := range b.bodies {
			copy(body[b.nameAt[i]:], digits)
			var id string
			err := t.do(parent, "httpapi.upload", int64(len(body)), func() error {
				var err error
				id, err = b.cl.upload(body)
				return err
			})
			if err != nil {
				return spec, nil, err
			}
			spec.TraceIDs = append(spec.TraceIDs, id)
			labels[id] = "t" + strconv.Itoa(i)
		}
		return uploadSpec(spec.TraceIDs), labels, nil
	default: // grid and cluster re-simulate every round
		err := t.do(parent, "engine.reset", int64(len(b.sys.nodes)), func() error {
			for _, e := range b.sys.engines() {
				e.ResetRuns()
			}
			return nil
		})
		return b.in.spec, nil, err
	}
}

// measurement aggregates the measured rounds of a run.
type measurement struct {
	rounds                    int
	wall, cpu                 time.Duration
	roundMs, sweepMs, firstMs []float64
	jobMs                     []float64
	jobs, failedJobs          int
	accesses                  uint64
}

// measure runs rounds back to back until d has passed.
func (b *bench) measure(d time.Duration) (*measurement, error) {
	m := &measurement{}
	cpu0 := cpuTime()
	start := time.Now()
	for m.rounds == 0 || time.Since(start) < d {
		rs, err := b.round(nil, 0, false)
		if err != nil {
			return nil, err
		}
		m.rounds++
		m.roundMs = append(m.roundMs, rs.roundMs)
		m.sweepMs = append(m.sweepMs, rs.out.sweepMs)
		m.firstMs = append(m.firstMs, rs.out.firstMs)
		m.jobMs = append(m.jobMs, rs.out.jobMs...)
		m.jobs += len(rs.out.jobs)
		m.failedJobs += rs.out.failed
		for _, j := range rs.out.jobs {
			m.accesses += b.gate.accesses[j.key()]
		}
	}
	m.wall = time.Since(start)
	m.cpu = cpuTime() - cpu0
	return m, nil
}
