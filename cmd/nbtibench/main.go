package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// procStart is when the process started: the first setup's clock.
var procStart = time.Now()

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runReport is a single-workload run's full outcome: the printed
// result plus what the summary lines carry.
type runReport struct {
	result
	digest string
	rounds int
	err    error // why the run is not correct
	spans  []span
}

func main() {
	name := flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); empty runs all of them, each in its own process")
	seed := flag.Int64("seed", 1, "input seed: picks the benches and the upload traces")
	seconds := flag.Float64("seconds", 0, "measured seconds per run; 0 takes each workload's default")
	traceArg := flag.String("trace", "0", "0: untraced; 1: traced replay, per-layer metrics; other: traced, spans written to this file")
	runs := flag.Int("runs", 1, "all-workload mode: runs per workload")
	out := flag.String("out", "", "all-workload mode: write every run's metrics to this JSON file")
	compare := flag.String("compare", "", "compare this -out file (base) with the one named by the first argument (head)")
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark contract: metric names, units and bounds")
	flag.Parse()

	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "nbtibench: -compare base.json needs the head file as its argument")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, *benchPath, *compare, flag.Arg(0)))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *traceArg, *runs, *out))
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traceArg}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbtibench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "nbtibench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "nbtibench: correctness gate failed:", rep.err)
		os.Exit(1)
	}
}

// printReport writes the summary lines and, last, the result object.
func printReport(w io.Writer, cfg config, rep *runReport) error {
	fmt.Fprintf(w, "workload %s seed %d rounds %d attempted %d failed %d\n",
		cfg.workload, cfg.seed, rep.rounds, rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "results_digest %s\n", rep.digest)
	for _, name := range sortedKeys(rep.Metrics) {
		v := rep.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload sets one workload up several times, measures the last
// setup for the run's seconds (half of them when traced, the other half
// replaying rounds layer by layer), checks the served results, and
// tears down.
func runWorkload(cfg config) (rep *runReport, err error) {
	if cfg.seconds <= 0 {
		cfg.seconds = defaultSeconds[cfg.workload]
	}
	if cfg.tmp == "" {
		cfg.tmp = filepath.Join(".nbtibench-tmp", strconv.Itoa(os.Getpid()))
		// Fails, harmlessly, while another run still uses the parent.
		defer os.Remove(filepath.Dir(cfg.tmp))
	}
	defer func() { err = errors.Join(err, os.RemoveAll(cfg.tmp)) }()
	b := newBench(cfg)
	defer func() { err = errors.Join(err, b.teardown()) }()

	repeats := setupRepeats
	if cfg.quick {
		repeats = 1
	}
	var setups []float64
	for k := 0; k < repeats; k++ {
		start := time.Now()
		if k == 0 {
			start = procStart
		}
		if err := b.setup(k); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < repeats-1 {
			if err := b.teardown(); err != nil {
				return nil, err
			}
		}
	}

	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced() {
		measured /= 2
	}
	m, err := b.measure(measured)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep = &runReport{rounds: m.rounds}
	if cfg.traced() {
		lm, spans, err := b.replay(measured, m)
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", cfg.workload, err)
		}
		rep.Metrics, rep.spans = lm, spans
		if cfg.trace != "1" {
			if err := writeSpans(cfg.trace, cfg.workload, spans); err != nil {
				return nil, err
			}
		}
	} else {
		rep.Metrics = endToEndValues(setups, m)
	}
	if err := b.verifyReference(); err != nil {
		return nil, err
	}
	rep.digest = b.gate.resultsDigest()
	rep.Attempted = m.jobs + b.cl.requests
	rep.Failed = m.failedJobs + b.cl.non2xx + b.gate.mismatches
	rep.err = b.gate.err
	rep.Correct = rep.Failed == 0 && b.gate.err == nil
	for name, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", cfg.workload, name)
		}
	}
	return rep, nil
}
