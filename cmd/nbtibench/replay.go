package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"nbticache/internal/aging"
	"nbticache/internal/cas"
	"nbticache/internal/cluster"
	"nbticache/internal/core"
	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
	"nbticache/internal/index"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// perLayer are the traced run's metrics, one or more per layer. Each is
// measured on every workload by calling the layer's public function on
// that workload's inputs; the package doc says which end-to-end metric
// each should move, and where.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", false},
	{"workload.signature_ms", "ms", false},
	{"trace.decode_ns_per_access", "ns", false},
	{"trace.transpose_ns_per_access", "ns", false},
	{"core.kernel_ns_per_access", "ns", false},
	{"core.kernel_ms_per_round", "ms", false},
	{"core.accesses_per_round", "count", false},
	{"core.reference_ns_per_access", "ns", false},
	{"core.project_us_per_job", "us", false},
	{"engine.add_trace_ms", "ms", false},
	{"engine.submit_us", "us", false},
	{"engine.open_ms", "ms", false},
	{"engine.hit_us_per_job", "us", false},
	{"engine.queue_pct", "%", false},
	{"engine.resolve_pct", "%", false},
	{"engine.simulate_pct", "%", false},
	{"engine.project_pct", "%", false},
	{"engine.persist_pct", "%", false},
	{"engine.cache_hit_ratio", "ratio", true},
	{"engine.runs_shared_ratio", "ratio", true},
	{"cas.put_us", "us", false},
	{"cas.get_us", "us", false},
	{"cas.getblob_us", "us", false},
	{"cas.open_ms", "ms", false},
	{"httpapi.submit_ms", "ms", false},
	{"httpapi.stream_open_ms", "ms", false},
	{"httpapi.frame_encode_us", "us", false},
	{"httpapi.frame_decode_us", "us", false},
	{"cluster.submit_ms", "ms", false},
	{"cluster.first_event_ms", "ms", false},
	{"cluster.wait_tail_ms", "ms", false},
	{"cluster.shard_skew", "ratio", false},
	{"cluster.retried_jobs", "count", false},
	{"cluster.stream_event_ratio", "ratio", true},
	{"first_result_ms_p50", "ms", false},
	{"sweep_ms_p90", "ms", false},
	{"other_pct", "%", false},
	{"trace_overhead_pct", "%", false},
}

// signatureBanks is the bank count the engine measures an admitted
// trace's signature at.
const signatureBanks = 4

// replayJob is one job of the workload's round, resolved to its input.
type replayJob struct {
	spec  engine.JobSpec
	input int // index into the replay's traces
	kind  index.Kind
	mode  aging.SleepMode
}

// replay holds what the traced rounds call the layers with: the
// workload's own traces and jobs, and a side engine whose data
// directory holds this workload's results (and, for upload, traces).
type replay struct {
	b         *bench
	labels    []string
	profiles  []workload.Profile
	rows      []*trace.Trace
	cols      []*trace.Columns
	bins      [][]byte
	jobs      []replayJob
	spec      engine.SweepSpec
	breakeven uint64
	dir       string
	eng       *engine.Engine
	put       *cas.DiskStore
	coord     *cluster.Coordinator
	ownCoord  bool
}

func (b *bench) newReplay() (rp *replay, err error) {
	rp = &replay{b: b, dir: filepath.Join(b.cfg.tmp, "replay")}
	defer func() {
		if err != nil {
			rp.close()
		}
	}()
	rp.labels = b.inputLabels()
	for _, label := range rp.labels {
		p, err := b.input(label)
		if err != nil {
			return nil, err
		}
		tr, err := b.traceFor(label)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tr); err != nil {
			return nil, err
		}
		rp.profiles = append(rp.profiles, p)
		rp.rows = append(rp.rows, tr)
		rp.cols = append(rp.cols, trace.FromRows(tr))
		rp.bins = append(rp.bins, buf.Bytes())
	}
	be, err := power.DefaultTech().BreakevenCycles(geometry(), signatureBanks)
	if err != nil {
		return nil, err
	}
	rp.breakeven = max(uint64(be), 1)
	rp.eng, err = engine.New(rp.engineOptions())
	if err != nil {
		return nil, err
	}
	if b.cfg.workload == "upload" {
		var ids []string
		for _, tr := range rp.rows {
			info, _, err := rp.eng.AddTrace(tr)
			if err != nil {
				return nil, err
			}
			ids = append(ids, info.ID)
		}
		rp.spec = uploadSpec(ids)
	} else {
		rp.spec = b.in.spec
	}
	specs, err := rp.spec.Expand()
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		mode, err := s.SleepMode()
		if err != nil {
			return nil, err
		}
		j := replayJob{spec: s, kind: index.Kind(s.Policy), mode: mode}
		for i, label := range rp.labels {
			if s.Bench == label || (s.TraceID != "" && s.TraceID == rp.spec.TraceIDs[i]) {
				j.input = i
			}
		}
		if _, err := rp.eng.RunJob(context.Background(), s); err != nil {
			return nil, err
		}
		rp.jobs = append(rp.jobs, j)
	}
	rp.eng.Drain()
	if rp.put, err = cas.OpenDisk(filepath.Join(rp.dir, "put"), cas.Limits{}); err != nil {
		return nil, err
	}
	if b.sys.coord != nil {
		rp.coord = b.sys.coord
	} else {
		rp.coord, err = cluster.New(cluster.Options{Peers: []string{b.sys.nodes[0].ep.url}})
		if err != nil {
			return nil, err
		}
		rp.ownCoord = true
	}
	return rp, nil
}

func (rp *replay) engineOptions() engine.Options {
	return engine.Options{
		Workers: rp.b.workers, Model: rp.b.model, Gen: rp.b.in.gen,
		DataDir: filepath.Join(rp.dir, "engine"),
	}
}

func (rp *replay) close() {
	if rp.ownCoord {
		rp.coord.Close()
	}
	if rp.put != nil {
		_ = rp.put.Close()
	}
	if rp.eng != nil {
		rp.eng.Close()
	}
}

// roundExtras are the traced round's readings that are not spans: the
// served jobs' phase timings and the engines' counter deltas.
type roundExtras struct {
	cpuMs                           float64          // process CPU of the served round
	timing                          engine.JobTiming // summed over the served jobs
	hits, misses, executed, shared  uint64
	skew, retried, streamed, merged float64
}

// round replays one round of the workload, layer by layer, under the
// round's root span.
func (rp *replay) round(t *tracer, ex *roundExtras) error {
	return t.span(0, "replay.round", 0, func(root int) error {
		for _, step := range []func(*tracer, int, *roundExtras) error{
			rp.inputs, rp.kernel, rp.engineLayer, rp.casLayer, rp.served, rp.clusterLayer,
		} {
			if err := step(t, root, ex); err != nil {
				return err
			}
		}
		return nil
	})
}

// inputs times trace generation, signature measurement, binary decode
// and transposition on each of the workload's traces.
func (rp *replay) inputs(t *tracer, root int, _ *roundExtras) error {
	gp := rp.b.in.gen(geometry())
	for i, p := range rp.profiles {
		n := int64(rp.rows[i].Len())
		steps := []struct {
			name string
			fn   func() error
		}{
			{"workload.generate", func() error { _, err := p.Generate(gp); return err }},
			{"workload.signature", func() error {
				_, err := workload.MeasureSignature(rp.rows[i], geometry(), signatureBanks, rp.breakeven)
				return err
			}},
			{"trace.decode", func() error {
				d, err := trace.NewBinaryDecoder(bytes.NewReader(rp.bins[i]))
				if err != nil {
					return err
				}
				_, err = d.ReadAll(0)
				return err
			}},
			{"trace.transpose", func() error { trace.FromRows(rp.rows[i]); return nil }},
		}
		for _, s := range steps {
			if err := t.do(root, s.name, n, s.fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// kernel times the batch kernel on every job of the round, on as many
// goroutines as the node has workers, then the row reference and the
// aging projection per job.
func (rp *replay) kernel(t *tracer, root int, _ *roundExtras) error {
	var total int64
	for _, j := range rp.jobs {
		total += int64(rp.cols[j.input].Len())
	}
	runs := make([]*core.RunResult, len(rp.jobs))
	err := t.span(root, "core.kernel.round", total, func(kr int) error {
		next := make(chan int, len(rp.jobs)) // sized to the job count: filled once, then closed
		for i := range rp.jobs {
			next <- i
		}
		close(next)
		errs := make([]error, rp.b.workers)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := core.NewBatch(core.DefaultBatchSize)
				for i := range next {
					j := rp.jobs[i]
					cols := rp.cols[j.input]
					errs[w] = errors.Join(errs[w], t.do(kr, "core.kernel", int64(cols.Len()), func() error {
						pc, err := core.New(core.Config{Geometry: geometry(), Banks: j.spec.Banks, Policy: j.kind})
						if err != nil {
							return err
						}
						runs[i], err = pc.RunColumnsUnchecked(cols, buf)
						return err
					}))
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	for _, j := range rp.jobs {
		tr := rp.rows[j.input]
		err := t.do(root, "core.reference", int64(tr.Len()), func() error {
			pc, err := core.New(core.Config{Geometry: geometry(), Banks: j.spec.Banks, Policy: j.kind})
			if err != nil {
				return err
			}
			_, err = pc.Run(tr)
			return err
		})
		if err != nil {
			return err
		}
	}
	for i, j := range rp.jobs {
		err := t.do(root, "core.project", 1, func() error {
			_, err := core.ProjectAging(rp.b.model, runs[i].RegionSleepFractions(), j.kind, j.spec.Epochs, j.mode)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// engineLayer times trace admission, sweep submission, opening an
// engine on the workload's data directory, and result-cache hits.
func (rp *replay) engineLayer(t *tracer, root int, _ *roundExtras) error {
	ctx := context.Background()
	for i, tr := range rp.rows {
		// A fresh name each round makes the admission new, as an upload is.
		renamed := *tr
		renamed.Name = fmt.Sprintf("rp%d-r%08d", i, t.round)
		var info engine.TraceInfo
		err := t.do(root, "engine.add_trace", int64(tr.Len()), func() error {
			var err error
			info, _, err = rp.eng.AddTrace(&renamed)
			return err
		})
		if err != nil {
			return err
		}
		rp.eng.RemoveTrace(info.ID)
	}
	var h *engine.Handle
	err := t.do(root, "engine.submit", int64(len(rp.jobs)), func() error {
		var err error
		h, err = rp.eng.Submit(ctx, rp.spec)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := h.Wait(ctx); err != nil {
		return err
	}
	rp.eng.Drain()
	var opened *engine.Engine
	err = t.do(root, "engine.open", 1, func() error {
		var err error
		opened, err = engine.New(rp.engineOptions())
		return err
	})
	if err != nil {
		return err
	}
	defer opened.Close()
	for _, j := range rp.jobs {
		err := t.do(root, "engine.hit", 1, func() error {
			res, err := opened.RunJob(ctx, j.spec)
			if err == nil && !res.Cached {
				err = fmt.Errorf("job %s was simulated, not served from the data directory", res.ID)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// casLayer times the blob store on the workload's real blobs: opening
// the stores, reading every blob both ways, and writing each again.
func (rp *replay) casLayer(t *tracer, root int, _ *roundExtras) error {
	var stores []*cas.DiskStore
	defer func() {
		for _, s := range stores {
			_ = s.Close()
		}
	}()
	err := t.do(root, "cas.open", 2, func() error {
		for _, ks := range []string{"jobs", "traces"} {
			s, err := cas.OpenDisk(filepath.Join(rp.dir, "engine", ks), cas.Limits{})
			if err != nil {
				return err
			}
			stores = append(stores, s)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range stores {
		list, err := s.List()
		if err != nil {
			return err
		}
		for _, st := range list {
			var blob []byte
			if err := t.do(root, "cas.get", st.Size, func() error {
				var err error
				blob, err = s.Get(st.Key)
				return err
			}); err != nil {
				return err
			}
			if err := t.do(root, "cas.getblob", st.Size, func() error {
				b, err := s.GetBlob(st.Key)
				if err != nil {
					return err
				}
				return b.Release()
			}); err != nil {
				return err
			}
			if err := t.do(root, "cas.put", st.Size, func() error { return rp.put.Put(st.Key, blob) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// served runs one round of the workload through the live system, as
// the measured rounds do, and times the HTTP layer's parts: the submit
// round trip, opening the event stream, and encoding and decoding each
// frame the stream carried.
func (rp *replay) served(t *tracer, root int, ex *roundExtras) error {
	before := statsSum(rp.b.sys.engines())
	cpu0 := cpuTime()
	var rs *roundStat
	err := t.span(root, "round", 0, func(id int) error {
		var err error
		rs, err = rp.b.round(t, id, true)
		return err
	})
	if err != nil {
		return err
	}
	ex.cpuMs = ms(cpuTime() - cpu0)
	after := statsSum(rp.b.sys.engines())
	if rp.b.cfg.workload == "warm" {
		before = engine.Stats{} // the round reopened the engine: its counters start at zero
	}
	ex.hits = after.CacheHits - before.CacheHits
	ex.misses = after.CacheMisses - before.CacheMisses
	ex.executed = after.RunsExecuted - before.RunsExecuted
	ex.shared = after.RunsShared - before.RunsShared
	out := rs.out
	for _, j := range out.jobs {
		if j.timing != nil {
			ex.timing.QueueMs += j.timing.QueueMs
			ex.timing.ResolveMs += j.timing.ResolveMs
			ex.timing.SimulateMs += j.timing.SimulateMs
			ex.timing.ProjectMs += j.timing.ProjectMs
			ex.timing.PersistMs += j.timing.PersistMs
			ex.timing.TotalMs += j.timing.TotalMs
		}
	}
	at := func(msOff float64) time.Time { return out.start.Add(time.Duration(msOff * float64(time.Millisecond))) }
	t.add(root, "httpapi.submit", out.start, at(out.submitMs), 1)
	t.add(root, "httpapi.stream_open", at(out.submitMs), at(out.submitMs+out.streamOpenMs), 1)

	er := httpapi.NewEventReader(bytes.NewReader(out.raw))
	var events []engine.SweepEvent
	for done := false; !done; {
		err := t.do(root, "httpapi.frame_decode", 1, func() error {
			f, err := er.Next()
			if err != nil {
				return err
			}
			switch f.Event {
			case "job":
				ev, err := f.JobEvent()
				events = append(events, ev)
				return err
			case "done":
				done = true
				_, err := f.DoneStatus()
				return err
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, ev := range events {
		if err := t.do(root, "httpapi.frame_encode", 1, func() error { httpapi.EncodeJobFrame(ev); return nil }); err != nil {
			return err
		}
	}
	return nil
}

// clusterLayer runs the workload's sweep through a coordinator — the
// cluster workload's own, or one over this workload's node — and times
// submission, the first merged event, and the rest of the sweep.
func (rp *replay) clusterLayer(t *tracer, root int, ex *roundExtras) error {
	ctx := context.Background()
	spec := rp.b.in.spec
	switch rp.b.cfg.workload {
	case "grid", "cluster":
		for _, e := range rp.b.sys.engines() {
			e.ResetRuns()
		}
	case "upload":
		node := rp.b.sys.nodes[0].eng
		var ids []string
		for i, tr := range rp.rows {
			// Fresh names keep the node's persisted results from answering.
			renamed := *tr
			renamed.Name = fmt.Sprintf("rc%d-r%08d", i, t.round)
			info, _, err := node.AddTrace(&renamed)
			if err != nil {
				return err
			}
			ids = append(ids, info.ID)
			defer node.RemoveTrace(info.ID)
		}
		spec = uploadSpec(ids)
	}
	before := rp.coord.Stats()
	start := time.Now()
	var h *cluster.Handle
	err := t.do(root, "cluster.submit", int64(len(rp.jobs)), func() error {
		var err error
		h, err = rp.coord.Submit(ctx, spec)
		return err
	})
	if err != nil {
		return err
	}
	backlog, live, cancel := h.EventsFrom(0)
	if len(backlog) == 0 {
		<-live // closes at the end of the sweep if no event came first
	}
	cancel()
	first := time.Now()
	res, err := h.Wait(ctx)
	if err != nil {
		return err
	}
	end := time.Now()
	for _, j := range res.Jobs {
		if j == nil || j.Failed() || j.Canceled {
			return fmt.Errorf("coordinator sweep %s: a job did not complete", res.ID)
		}
	}
	t.add(root, "cluster.first_event", start, first, 1)
	t.add(root, "cluster.wait_tail", first, end, int64(len(res.Jobs)))
	after := rp.coord.Stats()
	var most, sum float64
	for i, s := range after.Shards {
		d := float64(s.Merged - before.Shards[i].Merged)
		most = max(most, d)
		sum += d
	}
	ex.skew = most / (sum / float64(len(after.Shards)))
	ex.retried = float64(after.JobsRetried - before.JobsRetried)
	ex.streamed = float64(after.EventsStreamed - before.EventsStreamed)
	ex.merged = float64(after.JobsMerged - before.JobsMerged)
	return nil
}

// statsSum adds up the counters of several engines.
func statsSum(engs []*engine.Engine) engine.Stats {
	var s engine.Stats
	for _, e := range engs {
		st := e.Stats()
		s.CacheHits += st.CacheHits
		s.CacheMisses += st.CacheMisses
		s.RunsExecuted += st.RunsExecuted
		s.RunsShared += st.RunsShared
	}
	return s
}
