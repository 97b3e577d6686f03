package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/store"
)

// TestRunLoad drives the one load harness into every outcome bucket. Each
// row names the engine and load shape that forces its bucket; every row is
// additionally held to the accounting invariants: the buckets partition
// Ops, and nothing is lost or completed twice.
func TestRunLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	small := randMatrix(rng, 500, 16)
	// Large enough that one exact scan takes real time, so a single worker
	// cannot keep a shallow queue drained against bursting clients.
	big := randMatrix(rng, 60000, 16)
	queries := randMatrix(rng, 32, 16)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Every op under a cancelled parent must come back ErrDeadline, whether
	// RunLoad derives a per-op timeout from it or hands it on as is, and
	// VerifyMutated must say so through errors.Is.
	deadParent := func(t *testing.T, e *Engine, rep LoadReport, live LiveSet) {
		if rep.DeadlineExceeded != rep.Ops {
			t.Errorf("cancelled parent: %d of %d ops expired: %+v", rep.DeadlineExceeded, rep.Ops, rep)
		}
		if err := VerifyMutated(cancelled, e, live, queries, 5, 0); !errors.Is(err, ErrDeadline) {
			t.Errorf("VerifyMutated under a cancelled context: %v, want ErrDeadline", err)
		}
	}

	// store rows serve data from a quantized store: the backend with an
	// approximate path to pin or degrade to.
	cases := []struct {
		name   string
		data   *linalg.Dense
		store  bool
		parent context.Context // nil: context.Background()
		eng    Config
		load   LoadConfig
		check  func(t *testing.T, e *Engine, rep LoadReport, live LiveSet)
	}{
		{
			name: "read-only",
			data: small,
			eng:  Config{Shards: 2, QueueDepth: 1024},
			load: LoadConfig{Ops: 300, Concurrency: 8, K: 5, Mode: ModeExact},
			check: func(t *testing.T, e *Engine, rep LoadReport, live LiveSet) {
				if rep.Reads != rep.Ops || rep.Exact != rep.Ops {
					t.Errorf("reads %d (exact %d), want all %d ops", rep.Reads, rep.Exact, rep.Ops)
				}
				if st := e.Stats(); rep.Inserts+rep.Deletes != 0 || st.Inserts+st.Deletes != 0 {
					t.Errorf("write fraction 0 issued writes: report %d+%d, engine %d+%d",
						rep.Inserts, rep.Deletes, st.Inserts, st.Deletes)
				}
				if live.IDs != nil || live.Rows != small || rep.FinalRows != small.Rows() {
					t.Errorf("read-only run did not return the identity live set over base (ids %v, final rows %d)",
						live.IDs, rep.FinalRows)
				}
				if rep.Throughput <= 0 || rep.Elapsed <= 0 {
					t.Errorf("throughput %v over %v", rep.Throughput, rep.Elapsed)
				}
			},
		},
		{
			name: "overloaded",
			data: big,
			eng:  Config{Shards: 2, Workers: 1, ShardWorkers: 1, QueueDepth: 2},
			load: LoadConfig{Ops: 200, Concurrency: 16, K: 5, Mode: ModeExact},
			check: func(t *testing.T, e *Engine, rep LoadReport, _ LiveSet) {
				if rep.Overloaded == 0 {
					t.Errorf("flooding a depth-2 queue produced no overload rejections: %+v", rep)
				}
				if st := e.Stats(); st.Rejected != uint64(rep.Overloaded) {
					t.Errorf("engine rejected %d, report says %d", st.Rejected, rep.Overloaded)
				}
			},
		},
		{
			name: "deadline",
			data: small,
			eng:  Config{Shards: 2},
			load: LoadConfig{Ops: 100, Concurrency: 4, K: 5, Deadline: time.Nanosecond},
			check: func(t *testing.T, _ *Engine, rep LoadReport, _ LiveSet) {
				if rep.DeadlineExceeded != rep.Ops {
					t.Errorf("1 ns deadline: %d of %d ops expired", rep.DeadlineExceeded, rep.Ops)
				}
			},
		},
		{
			name:   "cancelled parent",
			data:   small,
			parent: cancelled,
			eng:    Config{Shards: 2},
			load:   LoadConfig{Ops: 100, Concurrency: 4, WriteFraction: 0.3, K: 5},
			check:  deadParent,
		},
		{
			name:   "cancelled parent, per-op deadline",
			data:   small,
			parent: cancelled,
			eng:    Config{Shards: 2},
			load:   LoadConfig{Ops: 100, Concurrency: 4, WriteFraction: 0.3, K: 5, Deadline: time.Minute},
			check:  deadParent,
		},
		{
			name: "write-overload",
			data: small,
			eng:  Config{Shards: 2, MaxDelta: 4, CompactAt: -1},
			load: LoadConfig{Ops: 200, Concurrency: 4, WriteFraction: 1, K: 5},
			check: func(t *testing.T, _ *Engine, rep LoadReport, _ LiveSet) {
				if rep.Overloaded == 0 || rep.OtherErrors != 0 {
					t.Errorf("inserts past a 4-row delta bound with compaction off: %d overloaded, %d other errors, want > 0 and 0",
						rep.Overloaded, rep.OtherErrors)
				}
			},
		},
		{
			name:  "degraded",
			data:  big,
			store: true,
			eng:   Config{Shards: 2, Workers: 1, ShardWorkers: 1, QueueDepth: 32, DegradeWatermark: 0.1},
			load:  LoadConfig{Ops: 240, Concurrency: 24, K: 5, Mode: ModeAuto},
			check: func(t *testing.T, e *Engine, rep LoadReport, _ LiveSet) {
				if rep.Degraded == 0 || rep.Approx < rep.Degraded {
					t.Errorf("no degradation past a 0.1 watermark under 24-way load: %+v", rep)
				}
				if st := e.Stats(); st.Degraded != uint64(rep.Degraded) {
					t.Errorf("engine degraded %d, report says %d", st.Degraded, rep.Degraded)
				}
				if rep.MeanWait <= 0 {
					t.Errorf("mean wait %v behind a single worker", rep.MeanWait)
				}
			},
		},
		{
			name:  "approx",
			data:  small,
			store: true,
			eng:   Config{Shards: 2, QueueDepth: 1024},
			load:  LoadConfig{Ops: 100, Concurrency: 4, K: 5, Mode: ModeApprox},
			check: func(t *testing.T, _ *Engine, rep LoadReport, _ LiveSet) {
				if rep.Approx != rep.Ops || rep.Exact != 0 || rep.Degraded != 0 {
					t.Errorf("pinned approx mode: %+v", rep)
				}
			},
		},
		{
			name: "mixed",
			data: small,
			eng:  Config{Shards: 2, QueueDepth: 1024, CompactAt: 32},
			load: LoadConfig{Ops: 600, Concurrency: 8, WriteFraction: 0.3, K: 5, Seed: 7},
			check: func(t *testing.T, e *Engine, rep LoadReport, live LiveSet) {
				if rep.Reads == 0 || rep.Inserts == 0 || rep.Deletes == 0 {
					t.Errorf("degenerate mix: %+v", rep)
				}
				if rep.DeletedIDHits != 0 || rep.StaleAcks != 0 || rep.UnknownID != 0 || rep.OtherErrors != 0 {
					t.Errorf("mutation invariants violated: %+v", rep)
				}
				if live.IDs == nil || rep.FinalRows != len(live.IDs) ||
					rep.FinalRows != small.Rows()+rep.Inserts-rep.Deletes {
					t.Errorf("live set has %d ids, report says %d rows after +%d −%d",
						len(live.IDs), rep.FinalRows, rep.Inserts, rep.Deletes)
				}
				if _, err := e.Compact(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := VerifyMutated(context.Background(), e, live, queries, 5, 0); err != nil {
					t.Error(err)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e *Engine
			var err error
			if c.store {
				e, err = NewFromStore(openTestStore(t, c.data, store.BuildConfig{}), c.eng)
			} else {
				e, err = New(c.data, c.eng)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			parent := c.parent
			if parent == nil {
				parent = context.Background()
			}
			rep, live, err := RunLoad(parent, e, c.data, queries, c.load)
			if err != nil {
				t.Fatal(err)
			}
			buckets := rep.Reads + rep.Inserts + rep.Deletes +
				rep.Overloaded + rep.DeadlineExceeded + rep.UnknownID + rep.OtherErrors
			if buckets != rep.Ops || rep.Ops != c.load.Ops {
				t.Errorf("outcomes do not partition the %d ops: %+v", c.load.Ops, rep)
			}
			if rep.Reads != rep.Exact+rep.Approx {
				t.Errorf("reads %d != exact %d + approx %d", rep.Reads, rep.Exact, rep.Approx)
			}
			if rep.Lost != 0 || rep.Duplicated != 0 {
				t.Errorf("lost %d, duplicated %d", rep.Lost, rep.Duplicated)
			}
			c.check(t, e, rep, live)
		})
	}
}

// TestRunLoadRejectsBadInput covers the harness's own input validation.
func TestRunLoadRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := randMatrix(rng, 200, 8)
	queries := randMatrix(rng, 8, 8)
	e := newTestEngine(t, data, 2)
	for name, run := range map[string]func() error{
		"write fraction above 1": func() error {
			_, _, err := RunLoad(context.Background(), e, data, queries, LoadConfig{Ops: 10, WriteFraction: 1.5})
			return err
		},
		"write fraction NaN": func() error {
			_, _, err := RunLoad(context.Background(), e, data, queries, LoadConfig{Ops: 10, WriteFraction: math.NaN()})
			return err
		},
		"writes without base": func() error {
			_, _, err := RunLoad(context.Background(), e, nil, queries, LoadConfig{Ops: 10, WriteFraction: 0.5})
			return err
		},
		"query width mismatch": func() error {
			_, _, err := RunLoad(context.Background(), e, data, randMatrix(rng, 4, 5), LoadConfig{Ops: 10})
			return err
		},
	} {
		if run() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Read-only load needs no base at all.
	rep, live, err := RunLoad(context.Background(), e, nil, queries, LoadConfig{Ops: 20, Concurrency: 2})
	if err != nil || rep.Reads != 20 || live.Rows != nil {
		t.Errorf("read-only run without base: %d reads, live rows %v, err %v", rep.Reads, live.Rows, err)
	}
}

// TestVerifyMutatedDetectsDivergence pins the oracle the mutation tests
// rely on: the identity live set over the served data verifies, while a ground
// truth that differs from what the engine serves — by one coordinate of one
// row, or by the ID mapping — does not.
func TestVerifyMutatedDetectsDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	data := randMatrix(rng, 300, 8)
	e := newTestEngine(t, data, 3)
	ctx := context.Background()
	if err := VerifyMutated(ctx, e, LiveSet{Rows: data}, data, 5, 16); err != nil {
		t.Fatalf("identity live set rejected: %v", err)
	}
	other := data.Clone()
	other.RawRow(0)[0] += 1e-9 // query 0's own row: its distance moves off zero
	if err := VerifyMutated(ctx, e, LiveSet{Rows: other}, data, 5, 16); err == nil {
		t.Error("perturbed ground truth accepted")
	}
	shifted := make([]int, data.Rows())
	for i := range shifted {
		shifted[i] = i + 1
	}
	if err := VerifyMutated(ctx, e, LiveSet{IDs: shifted, Rows: data}, data, 5, 16); err == nil {
		t.Error("shifted ID mapping accepted")
	}
	if err := VerifyMutated(ctx, e, LiveSet{}, data, 5, 16); err == nil {
		t.Error("empty live set accepted")
	}
}
