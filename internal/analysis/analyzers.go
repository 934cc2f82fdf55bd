package analysis

// All returns the full nbtivet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Detmap,
		Allocbound,
		Lockedio,
		Senterr,
		Nopsafe,
		Kernelpure,
		Ringchurn,
		Streamflush,
	}
}

// ByName resolves a subset of the suite by analyzer name; unknown
// names come back in the second result.
func ByName(names []string) (found []*Analyzer, unknown []string) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, n := range names {
		if a, ok := byName[n]; ok {
			found = append(found, a)
		} else {
			unknown = append(unknown, n)
		}
	}
	return found, unknown
}
