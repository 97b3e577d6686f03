package serve

import (
	"fmt"
	"runtime"

	"repro/internal/knn"
	"repro/internal/store"
)

// quantShard is the quantized-store backend: one contiguous range of an
// mmap-backed store.Store (shared across the snapshot's shards, since the
// store is already safe for concurrent range scans).
//
// Both paths hand the shard's dead positions to the store's sweep, which
// skips them inside the scan. The exact path rescores every live row, which
// is bit-identical to the float64 scan, so a store-backed engine preserves
// the engine's exact-path contract (the store's refine step reads only the
// rows its error radius cannot rule out, about k of them). The approximate
// path keeps the quantized scan but caps the candidates admitted to phase
// 2 at the configured budget of live rows — the engine's one approximate
// mechanism.
type quantShard struct {
	lo, hi  int
	st      *store.Store
	rescore int // approximate-path budget; <=0 selects rescoreFactor·k
	workers int // intra-query scan parallelism (Config.ScanWorkers)
}

// rescoreFactor scales k into the default approximate rescore budget.
const rescoreFactor = 32

func (s *quantShard) search(query []float64, k int, approx bool, dead []int, _ *knn.Collector) shardOut {
	if !approx {
		neigh, _ := s.st.SearchLive(query, s.lo, s.hi, k, s.hi-s.lo, s.workers, dead)
		return shardOut{neigh: neigh}
	}
	budget := s.rescore
	if budget <= 0 {
		budget = rescoreFactor * k
	}
	neigh, rescored := s.st.SearchLive(query, s.lo, s.hi, k, budget, s.workers, dead)
	return shardOut{neigh: neigh, candidates: rescored}
}

// NewFromStore builds an engine whose shards scan a quantized store instead
// of an in-memory matrix. The store is retained, not copied; it must stay
// open while the engine serves. cfg.Rescore bounds the approximate path's
// per-shard exact refinement.
func NewFromStore(st *store.Store, cfg Config) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	n, d := st.Len(), st.Dims()
	if n == 0 || d == 0 {
		return nil, fmt.Errorf("serve: cannot serve %dx%d store", n, d)
	}
	c := cfg.withDefaults(n, runtime.GOMAXPROCS(0))
	return newEngine(c, buildStoreSnapshot(st, c)), nil
}

// buildStoreSnapshot partitions the store's rows into cfg.Shards contiguous
// quantShards over the shared mapping.
func buildStoreSnapshot(st *store.Store, cfg Config) *snapshot {
	n := st.Len()
	// exact is the store's resident full-precision region: the float64
	// ground truth its own exact path rescores against, and therefore the
	// row source the compactor folds from. A store-backed engine's first
	// compaction consequently produces a dense-backed snapshot over those
	// exact rows, which preserves bit-identity of every later query and
	// ends the engine's budgeted approximate path.
	snap := &snapshot{epoch: 1, n: n, d: st.Dims(), exact: st.ExactMatrix(), shards: make([]*shard, cfg.Shards), budgeted: true}
	for s, r := range shardRanges(n, cfg.Shards) {
		snap.shards[s] = &shard{
			lo: r[0],
			hi: r[1],
			be: &quantShard{lo: r[0], hi: r[1], st: st, rescore: cfg.Rescore, workers: cfg.ScanWorkers},
		}
	}
	return snap
}
