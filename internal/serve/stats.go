package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Latency histogram shape: log10(seconds) over [100ns, 10s) at 64 bins per
// decade. Fixed buckets keep the recorder O(1) per request and O(bins)
// memory no matter how many requests it absorbs; quantiles are read back
// with stats.Histogram.Quantile at one-bin (≈3.7%) resolution.
const (
	latMinLog = -7.0
	latMaxLog = 1.0
	latBins   = 512
)

// counters is the engine's atomic counter block.
type counters struct {
	served   atomic.Uint64
	rejected atomic.Uint64
	deadline atomic.Uint64
	degraded atomic.Uint64
	exact    atomic.Uint64
	approx   atomic.Uint64
	// Mutation-path counters. These are cumulative over the engine's life,
	// deliberately independent of the snapshot pointer: a compaction
	// installs fresh shards (whose per-shard tallies restart), but the
	// mutation history must survive the swap or the load generator's
	// accounting would observe inserts "vanishing" at every compaction.
	inserts     atomic.Uint64
	deletes     atomic.Uint64
	compactions atomic.Uint64
}

// latencyRecorder is one cumulative fixed-bucket histogram of served-request
// latency: every request the engine answers, whichever epoch served it.
type latencyRecorder struct {
	mu sync.Mutex
	h  *stats.Histogram
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{h: stats.NewHistogram(latMinLog, latMaxLog, latBins)}
}

// record adds one request's total latency.
func (l *latencyRecorder) record(d time.Duration) {
	sec := d.Seconds()
	if sec <= 0 {
		sec = 1e-9 // clock-resolution floor; clamps into the first bucket
	}
	x := math.Log10(sec)
	l.mu.Lock()
	l.h.Add(x)
	l.mu.Unlock()
}

// quantile returns the q-quantile latency, or 0 before any request.
func (l *latencyRecorder) quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.h.Total() == 0 {
		return 0
	}
	return time.Duration(math.Pow(10, l.h.Quantile(q)) * float64(time.Second))
}

// EngineStats is a point-in-time snapshot of the engine's counters.
type EngineStats struct {
	// Served counts requests answered with a result. Exact + Approx ==
	// Served; Degraded counts the subset of Approx that admission control
	// downgraded.
	Served, Exact, Approx, Degraded uint64
	// Rejected counts ErrOverloaded admissions — query-queue overflow plus
	// Insert rejections at the MaxDelta cap; Deadline counts requests whose
	// context expired before a result was returned.
	Rejected, Deadline uint64
	// Swaps counts snapshot replacements. The compactor's install is the
	// only one, so Swaps == Compactions (the field stays for the benchmark
	// harness that reads it) and Epoch, the live generation, is one more
	// than the compactions installed.
	Swaps, Epoch uint64
	// Inserts and Deletes count acknowledged mutations over the engine's
	// life; Compactions counts background/explicit compaction installs. All
	// three are cumulative across snapshot swaps.
	Inserts, Deletes, Compactions uint64
	// DeltaRows is the live (inserted, not yet compacted or deleted) delta
	// depth at sampling time; Tombstones counts pending deletions not yet
	// folded away by a compaction.
	DeltaRows, Tombstones int
	// QueueDepth/QueueCap describe the admission queue at sampling time.
	QueueDepth, QueueCap int
	// Shards is the live partition count. ShardTasks[i] counts scans
	// executed by shard i this generation; ShardCandidates[i] counts the
	// approximate-path points shard i refined with exact distances.
	Shards          int
	ShardTasks      []uint64
	ShardCandidates []uint64
	// LatencyP50/LatencyP99 are served-request latency percentiles over
	// the engine's life, every epoch included (zero before the first served
	// request).
	LatencyP50, LatencyP99 time.Duration
}

// Stats samples the engine's counters. Per-shard numbers describe the live
// snapshot only (a compaction starts fresh shard counters with the new
// shards); mutation counters and latency percentiles are cumulative across
// compactions.
func (e *Engine) Stats() EngineStats {
	e.mut.mu.RLock()
	snap := e.snap.Load()
	deltaRows := e.mut.live
	tombstones := e.mut.snapDead + len(e.mut.deadIDs)
	e.mut.mu.RUnlock()
	compactions := e.counters.compactions.Load()
	s := EngineStats{
		Served:      e.counters.served.Load(),
		Exact:       e.counters.exact.Load(),
		Approx:      e.counters.approx.Load(),
		Degraded:    e.counters.degraded.Load(),
		Rejected:    e.counters.rejected.Load(),
		Deadline:    e.counters.deadline.Load(),
		Inserts:     e.counters.inserts.Load(),
		Deletes:     e.counters.deletes.Load(),
		Compactions: compactions,
		Swaps:       compactions,
		DeltaRows:   deltaRows,
		Tombstones:  tombstones,
		Epoch:       snap.epoch,
		QueueDepth:  len(e.queue),
		QueueCap:    cap(e.queue),
		Shards:      len(snap.shards),
		LatencyP50:  e.lat.quantile(0.50),
		LatencyP99:  e.lat.quantile(0.99),
	}
	s.ShardTasks = make([]uint64, len(snap.shards))
	s.ShardCandidates = make([]uint64, len(snap.shards))
	for i, sh := range snap.shards {
		s.ShardTasks[i] = sh.tasks.Load()
		s.ShardCandidates[i] = sh.candidates.Load()
	}
	return s
}
