package analysis_test

import (
	"testing"

	"nbticache/internal/analysis"
	"nbticache/internal/analysis/analysistest"
)

// Each fixture package exercises one analyzer's positive, negative and
// directive-suppressed cases; removing an analyzer's logic (or a
// fixture's suppression) makes the corresponding test fail.

func TestSenterr(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Senterr}, "senterr")
}

func TestDetmap(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Detmap}, "detmap")
}

func TestAllocbound(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Allocbound}, "allocbound")
}

func TestLockedio(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Lockedio}, "lockedio")
}

func TestNopsafe(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Nopsafe}, "nopsafe")
}

func TestKernelpure(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Kernelpure}, "kernelpure")
}

func TestRingchurn(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Ringchurn}, "ringchurn")
}

func TestStreamflush(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Streamflush}, "streamflush")
}

func TestByName(t *testing.T) {
	found, unknown := analysis.ByName([]string{"senterr", "nosuch", "detmap"})
	if len(found) != 2 || found[0].Name != "senterr" || found[1].Name != "detmap" {
		t.Errorf("found = %v", found)
	}
	if len(unknown) != 1 || unknown[0] != "nosuch" {
		t.Errorf("unknown = %v", unknown)
	}
}
