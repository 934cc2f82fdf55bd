// Command tracegen generates and inspects the synthetic benchmark traces.
//
// Usage:
//
//	tracegen -list                         # list benchmarks
//	tracegen -bench sha -o sha.trace       # write binary trace
//	tracegen -bench sha -format text       # dump text trace to stdout
//	tracegen -stats sha.trace              # summarise an existing trace
package main

import (
	"flag"
	"fmt"
	"os"

	"nbticache/internal/cache"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list benchmark profiles")
		bench   = flag.String("bench", "", "benchmark to generate")
		sizeKB  = flag.Int("size", 16, "cache size in kB (sets the footprint)")
		lineB   = flag.Int("line", 16, "line size in bytes")
		phases  = flag.Int("phases", 640, "scheduling phases")
		perPh   = flag.Int("accesses-per-phase", 1024, "access budget per phase")
		format  = flag.String("format", "binary", "output format: binary or text")
		out     = flag.String("o", "", "output path (default stdout)")
		statsIn = flag.String("stats", "", "summarise an existing binary trace file")
	)
	flag.Parse()
	if err := run(*list, *bench, *sizeKB, *lineB, *phases, *perPh, *format, *out, *statsIn); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(list bool, bench string, sizeKB, lineB, phases, perPh int, format, out, statsIn string) error {
	switch {
	case list:
		for _, name := range workload.Names() {
			p, _ := workload.ByName(name)
			fmt.Printf("%-12s idleness signature %5.1f%% %5.1f%% %5.1f%% %5.1f%%  writes %.0f%%\n",
				name,
				p.QuarterIdleness[0]*100, p.QuarterIdleness[1]*100,
				p.QuarterIdleness[2]*100, p.QuarterIdleness[3]*100,
				p.WriteFraction*100)
		}
		return nil
	case statsIn != "":
		f, err := os.Open(statsIn)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.ReadBinary(f)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s\n", tr.Name, trace.ComputeStats(tr, 16))
		return nil
	case bench == "":
		return fmt.Errorf("need -list, -stats or -bench (see -h)")
	}
	p, ok := workload.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (try -list)", bench)
	}
	g := cache.Geometry{Size: uint64(sizeKB) * 1024, LineSize: uint64(lineB), Ways: 1, AddressBits: 32}
	tr, err := p.Generate(workload.GenParams{Geometry: g, Phases: phases, AccessesPerPhase: perPh})
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "binary":
		if err := trace.WriteBinary(w, tr); err != nil {
			return err
		}
	case "text":
		if err := trace.WriteText(w, tr); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	fmt.Fprintf(os.Stderr, "generated %d accesses over %d cycles\n", tr.Len(), tr.Span)
	return nil
}
