package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := &Trace{Name: "sample"}
	t.Append(0, 0x1000, Read)
	t.Append(3, 0x1010, Read)
	t.Append(5, 0x0fff, Write)
	t.Append(9, 0x2000, Read)
	t.Span = 100
	return t
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Errorf("kind strings wrong: %v %v", Read, Write)
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Errorf("unknown kind string: %v", Kind(9))
	}
	if Kind(9).Valid() {
		t.Error("Kind(9) reported valid")
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{Cycles: []uint64{5, 3}, Addrs: []uint64{0, 0}, Kinds: []Kind{Read, Read}, Span: 10}
	if err := bad.Validate(); err == nil {
		t.Error("unordered trace accepted")
	}
	short := &Trace{Cycles: []uint64{5}, Addrs: []uint64{0}, Kinds: []Kind{Read}, Span: 5}
	if err := short.Validate(); err == nil {
		t.Error("span not covering last access accepted")
	}
	badKind := &Trace{Cycles: []uint64{1}, Addrs: []uint64{0}, Kinds: []Kind{Kind(7)}, Span: 10}
	if err := badKind.Validate(); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestAppendExtendsSpan(t *testing.T) {
	tr := &Trace{}
	tr.Append(10, 0x40, Read)
	if tr.Span != 11 {
		t.Errorf("Span = %d, want 11", tr.Span)
	}
	tr.Span = 1000
	tr.Append(20, 0x80, Write)
	if tr.Span != 1000 {
		t.Errorf("Span shrank to %d", tr.Span)
	}
}

func TestDensity(t *testing.T) {
	tr := sampleTrace()
	if got, want := tr.Density(), 4.0/100.0; got != want {
		t.Errorf("Density = %v, want %v", got, want)
	}
	empty := &Trace{}
	if empty.Density() != 0 {
		t.Error("empty trace density not 0")
	}
}

func TestComputeStats(t *testing.T) {
	tr := sampleTrace()
	s := ComputeStats(tr, 16)
	if s.Accesses != 4 || s.Reads != 3 || s.Writes != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.MinAddr != 0x0fff || s.MaxAddr != 0x2000 {
		t.Errorf("addr range wrong: %+v", s)
	}
	// lines: 0x1000/16=0x100, 0x1010/16=0x101, 0xfff/16=0xff, 0x2000/16=0x200
	if s.UniqueLine != 4 {
		t.Errorf("UniqueLine = %d, want 4", s.UniqueLine)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	if got := ComputeStats(&Trace{}, 16); got.Accesses != 0 {
		t.Errorf("empty stats wrong: %+v", got)
	}
	// lineSize 0 treated as 1
	s0 := ComputeStats(tr, 0)
	if s0.UniqueLine != 4 {
		t.Errorf("lineSize=0 UniqueLine = %d, want 4", s0.UniqueLine)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	tr := &Trace{Name: "empty", Span: 42}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "empty" || got.Span != 42 || got.Len() != 0 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("NBTR\x07"),     // bad version
		[]byte("NBTR\x01\xff"), // truncated after version
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestBinaryRejectsInvalidTrace(t *testing.T) {
	bad := &Trace{Cycles: []uint64{5, 3}, Addrs: []uint64{0, 0}, Kinds: []Kind{Read, Read}, Span: 10}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, bad); err == nil {
		t.Error("WriteBinary accepted unordered trace")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v\ntext:\n%s", got, tr, buf.String())
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	for i, s := range []string{
		"1 Q 0x40\n",           // bad kind
		"zork R 0x40\n",        // bad cycle
		"5 R 0x40\n3 R 0x40\n", // unordered
	} {
		if _, err := ReadText(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: garbage accepted: %q", i, s)
		}
	}
}

func TestTextInfersSpan(t *testing.T) {
	got, err := ReadText(strings.NewReader("0 R 0x10\n7 W 0x20\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Span != 8 {
		t.Errorf("inferred span = %d, want 8", got.Span)
	}
}

// Property: binary round trip is the identity for arbitrary ordered traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(deltas []uint16, addrs []uint32, span uint8) bool {
		tr := &Trace{Name: "prop"}
		cycle := uint64(0)
		n := len(deltas)
		if len(addrs) < n {
			n = len(addrs)
		}
		for i := 0; i < n; i++ {
			cycle += uint64(deltas[i])
			tr.Append(cycle, uint64(addrs[i]), Kind(i%2))
		}
		tr.Span += uint64(span)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	tr := &Trace{Name: "bench"}
	rng := rand.New(rand.NewSource(1))
	cycle := uint64(0)
	for i := 0; i < 100000; i++ {
		cycle += uint64(rng.Intn(4) + 1)
		tr.Append(cycle, uint64(rng.Intn(1<<20)), Read)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}
