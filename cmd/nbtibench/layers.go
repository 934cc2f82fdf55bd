package main

import (
	"time"
)

// replay measures the per-layer metrics: it replays rounds for d,
// alternating rounds with spans on and off (the difference is the
// tracing overhead), and derives every metric from the on rounds. m is
// the run's untraced measurement, for the diagnostics it carries.
func (b *bench) replay(d time.Duration, m *measurement) (map[string]value, []span, error) {
	rp, err := b.newReplay()
	if err != nil {
		return nil, nil, err
	}
	defer rp.close()
	t := newTracer()
	var onMs, offMs, cpuMs []float64
	var extras []roundExtras
	start := time.Now()
	for r := 0; r < 2 || time.Since(start) < d; r++ {
		t.on = r%2 == 0
		t.round = r
		var ex roundExtras
		began := time.Now()
		if err := rp.round(t, &ex); err != nil {
			return nil, nil, err
		}
		cpuMs = append(cpuMs, ex.cpuMs)
		if t.on {
			onMs = append(onMs, msSince(began))
			extras = append(extras, ex)
		} else {
			offMs = append(offMs, msSince(began))
		}
	}
	return layerValues(b.cfg.workload, t.spans, extras, onMs, offMs, median(cpuMs), m), t.spans, nil
}

// spanSet groups spans by name.
type spanSet map[string][]span

// medianMs is the median duration of the named spans, in milliseconds.
func (s spanSet) medianMs(name string) float64 {
	var xs []float64
	for _, sp := range s[name] {
		xs = append(xs, sp.ms())
	}
	return median(xs)
}

// meanMs is the named spans' total duration over their count.
func (s spanSet) meanMs(name string) float64 {
	var sum float64
	for _, sp := range s[name] {
		sum += sp.ms()
	}
	return sum / float64(len(s[name]))
}

// nsPer is the named spans' total duration over their total work count.
func (s spanSet) nsPer(name string) float64 {
	var sum float64
	var n int64
	for _, sp := range s[name] {
		sum += sp.ms()
		n += sp.N
	}
	return sum * 1e6 / float64(n)
}

// attribution weighs the spans that stand for the CPU one served round
// spends: each step of the round is counted once, through its outermost
// observation (an upload's round trip covers its decode and admission),
// and frames count once per HTTP hop they cross. Request round trips
// other than uploads are left out: they are mostly waiting for a
// processor the workers hold, not work.
func attribution(workload string) map[string]float64 {
	hops := 1.0
	if workload == "cluster" {
		hops = 2 // shard to coordinator, coordinator to client
	}
	w := map[string]float64{"httpapi.frame_decode": hops, "httpapi.frame_encode": hops}
	switch workload {
	case "warm":
		w["engine.reopen"] = 1
	case "upload":
		w["httpapi.upload"] = 1
		w["core.kernel"] = 1
		w["core.project"] = 1
	default:
		w["engine.reset"] = 1
		w["core.kernel"] = 1
		w["core.project"] = 1
	}
	return w
}

// layerValues derives the per-layer metrics from the on rounds' spans
// and readings. cpuRound is the median process CPU of a served round
// during the replay, which other_pct splits into the layers' share and
// the rest.
func layerValues(workload string, spans []span, extras []roundExtras, onMs, offMs []float64, cpuRound float64, m *measurement) map[string]value {
	set := make(spanSet)
	weights := attribution(workload)
	attributed := make(map[int]float64)
	rounds := make([]int, 0, len(extras))
	for _, sp := range spans {
		set[sp.Name] = append(set[sp.Name], sp)
		if sp.Name == "replay.round" {
			rounds = append(rounds, sp.Round)
		}
		attributed[sp.Round] += weights[sp.Name] * sp.ms()
	}
	var tm struct{ queue, resolve, simulate, project, persist, total float64 }
	var hits, misses, executed, shared uint64
	var skew, retried, streamed, merged float64
	var perRound []float64
	for i, ex := range extras {
		tm.queue += ex.timing.QueueMs
		tm.resolve += ex.timing.ResolveMs
		tm.simulate += ex.timing.SimulateMs
		tm.project += ex.timing.ProjectMs
		tm.persist += ex.timing.PersistMs
		tm.total += ex.timing.TotalMs
		hits += ex.hits
		misses += ex.misses
		executed += ex.executed
		shared += ex.shared
		skew += ex.skew
		retried += ex.retried
		streamed += ex.streamed
		merged += ex.merged
		// Served results carry their persist phase: the write-behind (on
		// warm, the read) the round's jobs paid.
		perRound = append(perRound, attributed[rounds[i]]+ex.timing.PersistMs)
	}
	n := float64(len(extras))
	var accesses float64
	if k := set["core.kernel.round"]; len(k) > 0 {
		accesses = float64(k[0].N)
	}
	raw := map[string]float64{
		"workload.generate_ms":          set.medianMs("workload.generate"),
		"workload.signature_ms":         set.medianMs("workload.signature"),
		"trace.decode_ns_per_access":    set.nsPer("trace.decode"),
		"trace.transpose_ns_per_access": set.nsPer("trace.transpose"),
		"core.kernel_ns_per_access":     set.nsPer("core.kernel"),
		"core.kernel_ms_per_round":      set.medianMs("core.kernel.round"),
		"core.accesses_per_round":       accesses,
		"core.reference_ns_per_access":  set.nsPer("core.reference"),
		"core.project_us_per_job":       set.meanMs("core.project") * 1e3,
		"engine.add_trace_ms":           set.medianMs("engine.add_trace"),
		"engine.submit_us":              set.medianMs("engine.submit") * 1e3,
		"engine.open_ms":                set.medianMs("engine.open"),
		"engine.hit_us_per_job":         set.meanMs("engine.hit") * 1e3,
		"engine.queue_pct":              100 * tm.queue / tm.total,
		"engine.resolve_pct":            100 * tm.resolve / tm.total,
		"engine.simulate_pct":           100 * tm.simulate / tm.total,
		"engine.project_pct":            100 * tm.project / tm.total,
		"engine.persist_pct":            100 * tm.persist / tm.total,
		"engine.cache_hit_ratio":        ratio(hits, hits+misses),
		"engine.runs_shared_ratio":      ratio(shared, shared+executed),
		"cas.put_us":                    set.meanMs("cas.put") * 1e3,
		"cas.get_us":                    set.meanMs("cas.get") * 1e3,
		"cas.getblob_us":                set.meanMs("cas.getblob") * 1e3,
		"cas.open_ms":                   set.medianMs("cas.open"),
		"httpapi.submit_ms":             set.medianMs("httpapi.submit"),
		"httpapi.stream_open_ms":        set.medianMs("httpapi.stream_open"),
		"httpapi.frame_encode_us":       set.meanMs("httpapi.frame_encode") * 1e3,
		"httpapi.frame_decode_us":       set.meanMs("httpapi.frame_decode") * 1e3,
		"cluster.submit_ms":             set.medianMs("cluster.submit"),
		"cluster.first_event_ms":        set.medianMs("cluster.first_event"),
		"cluster.wait_tail_ms":          set.medianMs("cluster.wait_tail"),
		"cluster.shard_skew":            skew / n,
		"cluster.retried_jobs":          retried / n,
		"cluster.stream_event_ratio":    streamed / merged,
		"first_result_ms_p50":           median(m.firstMs),
		"sweep_ms_p90":                  quantile(m.sweepMs, 0.90),
		"other_pct":                     100 * (cpuRound - median(perRound)) / cpuRound,
		"trace_overhead_pct":            100 * (median(onMs) - median(offMs)) / median(offMs),
	}
	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = value{raw[d.name], d.unit}
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
