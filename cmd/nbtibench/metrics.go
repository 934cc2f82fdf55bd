package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The names, units and directions
// are the ones BENCHMARK.json lists; the smoke test holds the two equal.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a user of the sweep service sees, reported
// by every untraced run. Times are host time.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"sweep_ms_p50", "ms", false},
	{"job_ms_p50", "ms", false},
	{"job_ms_p99", "ms", false},
	{"jobs_per_s", "1/s", true},
	{"accesses_per_s", "1/s", true},
	{"cpu_ms_per_job", "ms", false},
	{"round_ms_p50", "ms", false},
	{"rss_mb_peak", "MB", false},
}

// value is one metric's reading with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues computes every end-to-end metric from the setups and
// the measured rounds.
func endToEndValues(setups []float64, m *measurement) map[string]value {
	secs := m.wall.Seconds()
	raw := map[string]float64{
		"setup_s":        median(setups),
		"sweep_ms_p50":   median(m.sweepMs),
		"job_ms_p50":     median(m.jobMs),
		"job_ms_p99":     quantile(m.jobMs, 0.99),
		"jobs_per_s":     float64(m.jobs) / secs,
		"accesses_per_s": float64(m.accesses) / secs,
		"cpu_ms_per_job": ms(m.cpu) / float64(m.jobs),
		"round_ms_p50":   median(m.roundMs),
		"rss_mb_peak":    rssPeakMB(),
	}
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = value{raw[d.name], d.unit}
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It is NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (Linux reports KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
