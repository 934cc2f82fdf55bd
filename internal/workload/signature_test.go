package workload

import (
	"math"
	"testing"

	"nbticache/internal/cache"
	"nbticache/internal/trace"
)

func TestMeasureSignatureRoundTrip(t *testing.T) {
	// Generate a trace from a known profile and re-measure its
	// signature: the loop must close within the generator's tolerance.
	p, _ := ByName("rijndael_o")
	g := geom16k()
	tr, err := p.Generate(GenParams{Geometry: g, Phases: 256, AccessesPerPhase: 512})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := MeasureSignature(tr, g, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if diff := math.Abs(sig.UsefulIdleness[q] - p.QuarterIdleness[q]); diff > 0.06 {
			t.Errorf("bank %d: measured %.3f vs profile %.3f", q, sig.UsefulIdleness[q], p.QuarterIdleness[q])
		}
		if sig.SleepFractions[q] > sig.UsefulIdleness[q]+1e-12 {
			t.Errorf("bank %d: sleep %.3f above idleness %.3f", q, sig.SleepFractions[q], sig.UsefulIdleness[q])
		}
	}
	if sig.Banks != 4 || sig.Breakeven != 60 {
		t.Error("metadata wrong")
	}
}

func TestSignatureToProfileAndBack(t *testing.T) {
	// A full onboarding round trip: measure an arbitrary trace,
	// synthesise a profile from the signature, and verify the synthetic
	// trace reproduces the measured signature.
	g := geom16k()
	hand := &trace.Trace{Name: "hand"}
	cycle := uint64(0)
	// Touch only the first quarter of the index space continuously.
	for i := 0; i < 200000; i++ {
		cycle += 3
		hand.Append(cycle, uint64(i%4096), trace.Read)
	}
	sig, err := MeasureSignature(hand, g, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if sig.UsefulIdleness[0] > 0.01 {
		t.Fatalf("busy quarter reported idle: %v", sig.UsefulIdleness)
	}
	for q := 1; q < 4; q++ {
		if sig.UsefulIdleness[q] < 0.99 {
			t.Fatalf("untouched quarter %d not idle: %v", q, sig.UsefulIdleness)
		}
	}
	p, err := sig.ToProfile("hand-synth", 0.2, 0.1, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := p.Generate(GenParams{Geometry: g, Phases: 256, AccessesPerPhase: 512})
	if err != nil {
		t.Fatal(err)
	}
	resig, err := MeasureSignature(synth, g, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if diff := math.Abs(resig.UsefulIdleness[q] - sig.UsefulIdleness[q]); diff > 0.06 {
			t.Errorf("bank %d: resynthesised %.3f vs measured %.3f", q, resig.UsefulIdleness[q], sig.UsefulIdleness[q])
		}
	}
}

func TestMeasureSignatureErrors(t *testing.T) {
	g := geom16k()
	tr := &trace.Trace{Name: "t"}
	tr.Append(0, 0x40, trace.Read)
	tr.Span = 100
	if _, err := MeasureSignature(tr, cache.Geometry{}, 4, 60); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := MeasureSignature(tr, g, 3, 60); err == nil {
		t.Error("bank count 3 accepted")
	}
	if _, err := MeasureSignature(tr, g, 1<<16, 60); err == nil {
		t.Error("oversized bank count accepted")
	}
	if _, err := MeasureSignature(tr, g, 4, 0); err == nil {
		t.Error("zero breakeven accepted")
	}
	if _, err := MeasureSignature(&trace.Trace{Span: 10}, g, 4, 60); err == nil {
		t.Error("empty trace accepted")
	}
	bad := &trace.Trace{Cycles: []uint64{5, 1}, Addrs: []uint64{0, 0}, Kinds: []trace.Kind{trace.Read, trace.Read}, Span: 10}
	if _, err := MeasureSignature(bad, g, 4, 60); err == nil {
		t.Error("unordered trace accepted")
	}
}

func TestToProfileErrors(t *testing.T) {
	sig := &Signature{Banks: 8, UsefulIdleness: make([]float64, 8)}
	if _, err := sig.ToProfile("x", 0.2, 0.1, 0.1, 1); err == nil {
		t.Error("8-bank signature accepted")
	}
	sig4 := &Signature{Banks: 4, UsefulIdleness: []float64{0.1, 0.2, 0.3, 0.4}}
	if _, err := sig4.ToProfile("", 0.2, 0.1, 0.1, 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := sig4.ToProfile("x", 2, 0.1, 0.1, 1); err == nil {
		t.Error("bad write fraction accepted")
	}
	p, err := sig4.ToProfile("ok", 0.2, 0.1, 0.1, 1)
	if err != nil || p.QuarterIdleness[3] != 0.4 {
		t.Errorf("good signature rejected: %v %v", p, err)
	}
}
