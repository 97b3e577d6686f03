package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressSwapOverload is the engine's race-mode workout: many concurrent
// clients mixing modes and deadlines, a rebuilder growing the served set and
// compacting mid flight — the compactor's install is the one snapshot swap
// there is — and a queue small enough to overflow under the burst load. It
// asserts the engine's liveness contract — every request ends in exactly
// one of served / ErrOverloaded / ErrDeadline, none lost — and the swap
// contract: a query admitted after a compaction returns is served by the new
// epoch or a later one (in-flight ones may see either, but never a torn mix).
func TestStressSwapOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(77))
	const (
		n, d     = 20000, 12
		clients  = 12
		perCli   = 40
		swaps    = 6
		k        = 5
		queueCap = 8
	)
	// Each generation is one row larger than the last, so sizes mark
	// generations: epoch g serves n+g-1 snapshot rows. Only the rebuilder's
	// explicit Compact installs a snapshot.
	extra := randMatrix(rng, swaps, d)
	e, err := New(randMatrix(rng, n, d), Config{
		Shards:           3,
		Workers:          2,
		ShardWorkers:     2,
		QueueDepth:       queueCap,
		DegradeWatermark: 0.5,
		CompactAt:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	queries := randMatrix(rng, 64, d)

	// minEpoch is a monotone lower bound on the live epoch, advanced by the
	// rebuilder once Compact has returned and read by clients BEFORE admission;
	// a served response must never report an epoch below the bound read
	// before its own admission.
	var minEpoch atomic.Uint64
	minEpoch.Store(1)

	var (
		served, overloaded, deadline, lost atomic.Uint64
	)
	var wg sync.WaitGroup
	wg.Add(clients + 1)

	// Rebuilder: compact through the generations while clients hammer.
	go func() {
		defer wg.Done()
		for g := 1; g <= swaps; g++ {
			time.Sleep(2 * time.Millisecond)
			if _, err := e.Insert(context.Background(), extra.RawRow(g-1)); err != nil {
				t.Errorf("insert %d: %v", g, err)
				return
			}
			epoch, err := e.Compact(context.Background())
			if err != nil {
				t.Errorf("compact %d: %v", g, err)
				return
			}
			minEpoch.Store(epoch)
		}
	}()

	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perCli; i++ {
				mode := Mode(crng.Intn(3))
				q := queries.RawRow(crng.Intn(queries.Rows()))
				floor := minEpoch.Load()
				ctx := context.Background()
				cancel := func() {}
				if crng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(crng.Intn(3))*time.Millisecond)
				}
				res, err := e.SearchMode(ctx, q, k, mode)
				cancel()
				switch {
				case err == nil:
					served.Add(1)
					if res.Epoch < floor {
						t.Errorf("request admitted at epoch floor %d served by stale epoch %d", floor, res.Epoch)
					}
					if !res.Approx && len(res.Neighbors) != k {
						t.Errorf("exact path served %d neighbors, want %d", len(res.Neighbors), k)
					}
					if len(res.Neighbors) > k {
						t.Errorf("served %d neighbors, more than k=%d", len(res.Neighbors), k)
					}
					// The response's row IDs must be valid for the
					// generation that served it (sizes differ per epoch):
					// its snapshot rows plus, at most, the one delta row
					// the next generation will fold in.
					maxRow := n + int(res.Epoch)
					for _, nb := range res.Neighbors {
						if nb.Index < 0 || nb.Index >= maxRow {
							t.Errorf("epoch %d returned row %d outside [0,%d)", res.Epoch, nb.Index, maxRow)
						}
					}
				case errors.Is(err, ErrOverloaded):
					overloaded.Add(1)
				case errors.Is(err, ErrDeadline):
					deadline.Add(1)
				default:
					lost.Add(1)
					t.Errorf("untyped error: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()

	total := served.Load() + overloaded.Load() + deadline.Load() + lost.Load()
	if total != clients*perCli {
		t.Fatalf("accounting hole: %d outcomes for %d requests", total, clients*perCli)
	}
	if lost.Load() != 0 {
		t.Fatalf("%d untyped outcomes", lost.Load())
	}
	if served.Load() == 0 {
		t.Fatalf("stress run served nothing (overloaded=%d deadline=%d)", overloaded.Load(), deadline.Load())
	}
	if e.Stats().Epoch != swaps+1 {
		t.Fatalf("final epoch %d, want %d", e.Stats().Epoch, swaps+1)
	}

	// After the storm the engine still serves correctly on the final
	// generation.
	res, err := e.SearchMode(context.Background(), queries.RawRow(0), k, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != swaps+1 {
		t.Fatalf("post-storm query served by epoch %d, want %d", res.Epoch, swaps+1)
	}
	st := e.Stats()
	if st.Served != served.Load()+1 {
		t.Fatalf("stats served %d, clients observed %d", st.Served, served.Load()+1)
	}
}
