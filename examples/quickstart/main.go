// Quickstart: simulate one benchmark on the partitioned cache and print
// the numbers the paper's evaluation revolves around — per-bank idleness,
// energy savings versus a monolithic cache, and the three lifetimes
// (monolithic, power-managed, power-managed + dynamic indexing).
package main

import (
	"fmt"
	"log"

	"nbticache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// The paper's default configuration: 16 kB direct-mapped cache with
	// 16-byte lines, split into 4 uniform banks, probing re-indexer.
	g := nbticache.Geometry16kB()
	pc, err := nbticache.New(nbticache.Config{
		Geometry: g,
		Banks:    4,
		Policy:   nbticache.Probing,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic trace with sha's published idleness signature: two
	// banks nearly always idle, two nearly always busy — the worst case
	// for a cache whose lifetime is pinned by its busiest bank.
	tr, err := nbticache.GenerateTrace("sha", g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %s, %d accesses over %d cycles\n", tr.Name, tr.Len(), tr.Span)

	res, err := pc.Run(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hit rate: %.2f%%   breakeven: %d cycles (%d-bit Block Control counters)\n",
		res.HitRate()*100, res.Breakeven, res.CounterWidth)
	fmt.Print("per-bank useful idleness: ")
	for _, v := range res.RegionUsefulIdleness() {
		fmt.Printf("%5.1f%% ", v*100)
	}
	fmt.Println()
	fmt.Printf("energy saving vs monolithic cache: %.1f%%\n", res.Savings*100)

	// The aging characterisation (analytical 45nm 6T cell + R-D NBTI
	// model, calibrated to the paper's 2.93-year unmanaged cell).
	model, err := nbticache.NewAgingModel()
	if err != nil {
		log.Fatal(err)
	}
	sum, err := nbticache.Lifetimes(model, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("lifetime, monolithic cache:          %.2f years\n", sum.MonolithicYears)
	fmt.Printf("lifetime, partitioned + sleep (LT0): %.2f years (+%.0f%%)\n",
		sum.LT0Years, sum.LT0Extension*100)
	fmt.Printf("lifetime, + dynamic indexing  (LT):  %.2f years (+%.0f%%)\n",
		sum.LTYears, sum.LTExtension*100)
	fmt.Println()
	fmt.Println("dynamic indexing turns the average idleness — instead of the")
	fmt.Println("minimum — into lifetime, which is the paper's contribution.")
}
