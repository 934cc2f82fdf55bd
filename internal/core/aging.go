package core

import (
	"fmt"
	"math"
	"sync"

	"nbticache/internal/aging"
	"nbticache/internal/index"
	"nbticache/internal/stats"
)

// shareKey identifies a policy share matrix: ProjectAging always builds
// its policy through index.New (default LFSR width and seed), so the
// matrix is a pure function of kind, bank count and epoch count.
type shareKey struct {
	kind   index.Kind
	banks  int
	epochs int
}

// shareCache memoises share matrices across projections. Every job in a
// sweep pays the same few (kind, M, epochs) points, and the matrices are
// read-only after construction, so one process-wide map serves all
// workers. maxShareCacheEntries bounds a pathological client that sweeps
// the epochs axis: past it, matrices are computed but not retained.
var (
	shareCache        sync.Map // shareKey -> *index.ShareMatrix
	shareCacheEntries int64
	shareCacheMu      sync.Mutex
)

const maxShareCacheEntries = 256

// policyShares returns the (possibly cached) share matrix for a policy
// kind constructed with index.New defaults.
func policyShares(kind index.Kind, banks, epochs int) (*index.ShareMatrix, error) {
	key := shareKey{kind, banks, epochs}
	if v, ok := shareCache.Load(key); ok {
		return v.(*index.ShareMatrix), nil
	}
	pol, err := index.New(kind, banks)
	if err != nil {
		return nil, err
	}
	sm, err := index.Shares(pol, epochs)
	if err != nil {
		return nil, err
	}
	shareCacheMu.Lock()
	if shareCacheEntries < maxShareCacheEntries {
		if _, loaded := shareCache.LoadOrStore(key, sm); !loaded {
			shareCacheEntries++
		}
	}
	shareCacheMu.Unlock()
	return sm, nil
}

// DefaultServiceEpochs is the number of re-indexing updates assumed over
// the cache's service life for the share analysis: daily updates ("once a
// day or even less frequently") across a decade-plus horizon.
const DefaultServiceEpochs = 4096

// StorageP0 is the probability of storing a 0 assumed by the lifetime
// projection; 0.5 is the balanced (best) case the paper's numbers use.
const StorageP0 = 0.5

// Projection is the multi-year aging outcome of one policy applied to the
// measured per-region sleep duties.
type Projection struct {
	// PolicyName identifies the f() that was projected.
	PolicyName string
	// Epochs is the number of updates assumed over the service life.
	Epochs int
	// BankDuty is the long-term sleep fraction of each physical bank.
	BankDuty []float64
	// BankLifetimeYears is the corresponding lifetime of each bank.
	BankLifetimeYears []float64
	// LifetimeYears is the cache lifetime: the first bank to die takes
	// the cache with it (aging is a worst-case metric).
	LifetimeYears float64
	// ShareError is the worst deviation of any bank/region hosting
	// share from the ideal 1/M (0 for probing at multiples of M, the
	// O(1/sqrt(N)) RNG error for scrambling, 1-1/M for identity).
	ShareError float64
}

// ProjectAging folds per-region sleep duties through a policy's long-term
// hosting shares and evaluates bank lifetimes with the aging model. The
// policy is constructed fresh from its kind so live simulation state is
// never perturbed.
func ProjectAging(model *aging.Model, regionSleep []float64, kind index.Kind, epochs int, mode aging.SleepMode) (*Projection, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil aging model")
	}
	if len(regionSleep) < 2 {
		return nil, fmt.Errorf("core: need >= 2 regions, got %d", len(regionSleep))
	}
	if epochs < 1 {
		return nil, fmt.Errorf("core: need >= 1 epoch, got %d", epochs)
	}
	for i, s := range regionSleep {
		if s < 0 || s > 1 {
			return nil, fmt.Errorf("core: region %d sleep fraction %v outside [0,1]", i, s)
		}
	}
	shares, err := policyShares(kind, len(regionSleep), epochs)
	if err != nil {
		return nil, err
	}
	duty, err := shares.BankDuty(regionSleep)
	if err != nil {
		return nil, err
	}
	lts, err := model.LifetimeVector(duty, StorageP0, mode)
	if err != nil {
		return nil, err
	}
	return &Projection{
		PolicyName:        string(kind),
		Epochs:            epochs,
		BankDuty:          duty,
		BankLifetimeYears: lts,
		LifetimeYears:     stats.Min(lts),
		ShareError:        shares.MaxError(),
	}, nil
}

// AgingSummary compares the three lifetimes of the paper's evaluation for
// one benchmark run: the monolithic cache (the cell lifetime — a
// non-partitioned cache has essentially no exploitable idleness), the
// partitioned power-managed cache without re-indexing (LT0), and with
// re-indexing (LT).
type AgingSummary struct {
	Name string
	// MonolithicYears is the unmanaged baseline (2.93 in the paper).
	MonolithicYears float64
	// LT0Years is the conventional partitioned cache (identity f()).
	LT0Years float64
	// LTYears is the dynamic-indexing cache (probing by default).
	LTYears float64
	// LT0Extension and LTExtension are fractional improvements over the
	// monolithic baseline.
	LT0Extension float64
	LTExtension  float64
}

// SummariseAging runs the identity and re-indexed projections for a
// result's measured region duties.
func SummariseAging(model *aging.Model, res *RunResult, reindex index.Kind, epochs int, mode aging.SleepMode) (*AgingSummary, error) {
	if reindex == index.KindIdentity {
		return nil, fmt.Errorf("core: re-indexing policy must not be identity")
	}
	duties := res.RegionSleepFractions()
	lt0, err := ProjectAging(model, duties, index.KindIdentity, epochs, mode)
	if err != nil {
		return nil, err
	}
	lt, err := ProjectAging(model, duties, reindex, epochs, mode)
	if err != nil {
		return nil, err
	}
	mono := model.CellLifetimeYears()
	s := &AgingSummary{
		Name:            res.Name,
		MonolithicYears: mono,
		LT0Years:        lt0.LifetimeYears,
		LTYears:         lt.LifetimeYears,
	}
	if mono > 0 {
		s.LT0Extension = s.LT0Years/mono - 1
		s.LTExtension = s.LTYears/mono - 1
	}
	if math.IsInf(s.LTYears, 1) {
		return nil, fmt.Errorf("core: infinite projected lifetime (fully gated bank?)")
	}
	return s, nil
}
