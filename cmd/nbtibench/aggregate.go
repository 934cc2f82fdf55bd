package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchFile is what -out writes and -compare reads: every run's value
// of every metric, per workload.
type benchFile struct {
	Seed      int64                    `json:"seed"`
	Runs      int                      `json:"runs"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	// Digests holds each run's results_digest; equal runs print one.
	Digests   []string               `json:"results_digests"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]*metricRuns `json:"metrics"`
}

type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// runAll runs every workload runs times, each run in a fresh process
// so setup time and memory are the workload's own, plus one traced run
// per workload when traceArg asks for one. It prints a summary, writes
// out when named, and returns the exit code.
func runAll(seed int64, seconds float64, traceArg string, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbtibench:", err)
		return 1
	}
	bf := &benchFile{Seed: seed, Runs: runs, Workloads: make(map[string]*workloadRuns)}
	ok := true
	for _, w := range workloadNames {
		wr := &workloadRuns{Correct: true, Metrics: make(map[string]*metricRuns)}
		bf.Workloads[w] = wr
		args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
		var traces []string
		for i := 0; i < runs; i++ {
			traces = append(traces, "0")
		}
		switch traceArg {
		case "0", "":
		case "1":
			traces = append(traces, "1")
		default:
			ext := filepath.Ext(traceArg)
			traces = append(traces, strings.TrimSuffix(traceArg, ext)+"."+w+ext)
		}
		for _, tr := range traces {
			rep, err := runChild(exe, append(append([]string(nil), args...), "-trace", tr))
			if err != nil {
				fmt.Fprintf(os.Stderr, "nbtibench: %s: %v\n", w, err)
				ok, wr.Correct = false, false
				continue
			}
			if tr == "0" {
				wr.Digests = append(wr.Digests, rep.digest)
			}
			wr.Correct = wr.Correct && rep.Correct
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			for name, v := range rep.Metrics {
				mr := wr.Metrics[name]
				if mr == nil {
					mr = &metricRuns{Unit: v.Unit}
					wr.Metrics[name] = mr
				}
				mr.Values = append(mr.Values, v.Value)
			}
		}
		for _, mr := range wr.Metrics {
			mr.Median, mr.Q1, mr.Q3 = median(mr.Values), quantile(mr.Values, 0.25), quantile(mr.Values, 0.75)
		}
		for _, d := range wr.Digests {
			if d != wr.Digests[0] {
				fmt.Fprintf(os.Stderr, "nbtibench: %s: runs served different results (%v)\n", w, wr.Digests)
				wr.Correct = false
			}
		}
		ok = ok && wr.Correct && wr.Failed == 0
	}
	printSummary(os.Stdout, bf)
	if out != "" {
		data, err := json.MarshalIndent(bf, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbtibench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process and parses its report:
// the results_digest line and the result object on the last line.
func runChild(exe string, args []string) (*runReport, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	rep := &runReport{}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if d, found := strings.CutPrefix(line, "results_digest "); found {
			rep.digest = d
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &rep.result); err != nil {
		return nil, fmt.Errorf("%v: no result line (%v)", args, runErr)
	}
	if runErr != nil {
		rep.Correct = false
	}
	return rep, nil
}

func printSummary(w io.Writer, bf *benchFile) {
	for _, name := range workloadNames {
		wr := bf.Workloads[name]
		if wr == nil {
			continue
		}
		digest := ""
		if len(wr.Digests) > 0 {
			digest = wr.Digests[0]
		}
		fmt.Fprintf(w, "%s: correct %v, attempted %d, failed %d, results_digest %s\n",
			name, wr.Correct, wr.Attempted, wr.Failed, digest)
		for _, m := range sortedKeys(wr.Metrics) {
			mr := wr.Metrics[m]
			fmt.Fprintf(w, "  %-32s median %12.6g  q1 %12.6g  q3 %12.6g  %s  (n=%d)\n",
				m, mr.Median, mr.Q1, mr.Q3, mr.Unit, len(mr.Values))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints, per workload and metric, both sides' medians and
// quartiles, the change, and a verdict under the metric's bound. It
// returns 1 when any end-to-end metric got worse or the served results
// differ.
func runCompare(w io.Writer, benchPath, basePath, headPath string) int {
	var c contract
	var base, head benchFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &c}, {basePath, &base}, {headPath, &head}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "nbtibench:", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-8s %-30s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "head", "delta", "bound", "verdict")
	for _, name := range workloadNames {
		bw, hw := base.Workloads[name], head.Workloads[name]
		if bw == nil || hw == nil {
			continue
		}
		if len(bw.Digests) > 0 && len(hw.Digests) > 0 && bw.Digests[0] != hw.Digests[0] {
			fmt.Fprintf(w, "%-8s results_digest differs: %s -> %s\n", name, bw.Digests[0], hw.Digests[0])
			code = 1
		}
		for _, group := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
			for _, m := range group {
				bm, hm := bw.Metrics[m.Name], hw.Metrics[m.Name]
				if bm == nil || hm == nil {
					continue
				}
				v, bound := "-", "-"
				if m.Bound > 0 {
					v = verdict(bm, hm, m.Bound, m.Better == "higher")
					bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				}
				if v == "worse" {
					code = 1
				}
				fmt.Fprintf(w, "%-8s %-30s %12.6g %12.6g %+7.1f%% %8s  %s  [base q1 %.6g q3 %.6g; head q1 %.6g q3 %.6g]\n",
					name, m.Name, bm.Median, hm.Median, 100*(hm.Median-bm.Median)/bm.Median, bound, v,
					bm.Q1, bm.Q3, hm.Q1, hm.Q3)
			}
		}
	}
	return code
}

// verdict judges head against base under bound, a share of base's
// median. A change whose every run beats every base run is better;
// otherwise a spread between quartiles wider than the bound leaves the
// metric unresolved.
func verdict(base, head *metricRuns, bound float64, higher bool) string {
	worse := (head.Median - base.Median) / base.Median
	if higher {
		worse = -worse
	}
	better := func(h, b float64) bool { return (h > b) == higher && h != b }
	all := func(cmp func(h, b float64) bool) bool {
		for _, h := range head.Values {
			for _, b := range base.Values {
				if !cmp(h, b) {
					return false
				}
			}
		}
		return true
	}
	spread := max((base.Q3-base.Q1)/base.Median, (head.Q3-head.Q1)/head.Median)
	switch {
	case all(better) && worse < -bound:
		return "better"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within"
}
