package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/linalg"
)

// mutModel is the test-side ground truth of the served set: stable ID →
// vector for every surviving row.
type mutModel struct {
	rows map[int][]float64
}

func newMutModel(base *linalg.Dense) *mutModel {
	m := &mutModel{rows: make(map[int][]float64, base.Rows())}
	for i := 0; i < base.Rows(); i++ {
		m.rows[i] = append([]float64(nil), base.RawRow(i)...)
	}
	return m
}

// liveSet materializes the surviving rows in ascending ID order.
func (m *mutModel) liveSet(d int) LiveSet {
	ids := make([]int, 0, len(m.rows))
	for id := range m.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := linalg.NewDense(len(ids), d)
	for r, id := range ids {
		copy(rows.RawRow(r), m.rows[id])
	}
	return LiveSet{IDs: ids, Rows: rows}
}

// checkBitIdentical asserts the engine's ModeExact results over queries are
// bit-identical to a from-scratch SearchSetBatch over the model's survivors.
func checkBitIdentical(t *testing.T, e *Engine, m *mutModel, queries *linalg.Dense, k int, tag string) {
	t.Helper()
	live := m.liveSet(queries.Cols())
	if err := VerifyMutated(context.Background(), e, live, queries, k, 0); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// mutTestConfig builds a config with automatic compaction disabled, so
// tests control compaction timing explicitly.
func mutTestConfig(shards int) Config {
	return Config{
		Shards:     shards,
		QueueDepth: 4096,
		CompactAt:  -1,
	}
}

func TestInsertDeleteVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, d, k = 120, 9, 5
	data := randMatrix(rng, n, d)
	e, err := New(data, mutTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ctx := context.Background()

	// Inserted IDs continue the snapshot's identity range.
	vec := make([]float64, d)
	for j := range vec {
		vec[j] = 100 + float64(j)
	}
	id, err := e.Insert(ctx, vec)
	if err != nil {
		t.Fatal(err)
	}
	if id != n {
		t.Fatalf("first insert id = %d, want %d", id, n)
	}
	if got := e.Len(); got != n+1 {
		t.Fatalf("Len = %d after insert, want %d", got, n+1)
	}

	// The inserted row is immediately visible at distance zero.
	res, err := e.SearchMode(ctx, vec, 1, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].Index != id || res.Neighbors[0].Dist != 0 {
		t.Fatalf("post-insert search = %+v, want id %d at distance 0", res.Neighbors, id)
	}

	// Deleting it makes it invisible and shrinks Len.
	if err := e.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	if got := e.Len(); got != n {
		t.Fatalf("Len = %d after delete, want %d", got, n)
	}
	res, err = e.SearchMode(ctx, vec, k, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res.Neighbors {
		if nb.Index == id {
			t.Fatalf("deleted id %d returned by search", id)
		}
	}

	// Snapshot rows delete too, and searches with the row's own vector no
	// longer find it.
	if err := e.Delete(ctx, 0); err != nil {
		t.Fatal(err)
	}
	res, err = e.SearchMode(ctx, data.RawRow(0), k, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res.Neighbors {
		if nb.Index == 0 {
			t.Fatal("deleted snapshot row 0 returned by search")
		}
	}
}

func TestMutationTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, d = 60, 7
	data := randMatrix(rng, n, d)
	cfg := mutTestConfig(2)
	cfg.MaxDelta = 3
	e, err := New(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Dimension mismatch.
	if _, err := e.Insert(ctx, make([]float64, d+1)); !errors.Is(err, ErrDims) {
		t.Fatalf("short insert err = %v, want ErrDims", err)
	}
	// Duplicate and absent deletes.
	if err := e.Delete(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(ctx, 5); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("duplicate delete err = %v, want ErrUnknownID", err)
	}
	if err := e.Delete(ctx, 1<<30); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("absent delete err = %v, want ErrUnknownID", err)
	}
	if err := e.Delete(ctx, -3); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("negative delete err = %v, want ErrUnknownID", err)
	}
	// Write admission control: the fourth live delta row is rejected.
	for i := 0; i < cfg.MaxDelta; i++ {
		if _, err := e.Insert(ctx, data.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Insert(ctx, data.RawRow(0)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap insert err = %v, want ErrOverloaded", err)
	}
	// Expired context.
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Insert(expired, data.RawRow(0)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired insert err = %v, want ErrDeadline", err)
	}
	if err := e.Delete(expired, 1); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired delete err = %v, want ErrDeadline", err)
	}
	if _, err := e.Compact(expired); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired compact err = %v, want ErrDeadline", err)
	}
	// Closed engine.
	e.Close()
	if _, err := e.Insert(ctx, data.RawRow(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed insert err = %v, want ErrClosed", err)
	}
	if err := e.Delete(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed delete err = %v, want ErrClosed", err)
	}
	if _, err := e.Compact(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed compact err = %v, want ErrClosed", err)
	}
}

// mutOp is one entry of a recorded mutation log (TestCompactDeterministic).
type mutOp struct {
	del bool
	id  int       // delete target
	vec []float64 // insert payload
}

// recordOpLog generates a fixed mutation log against a model without an
// engine, so the same log can replay under different compaction schedules.
func recordOpLog(rng *rand.Rand, base *linalg.Dense, ops int) []mutOp {
	d := base.Cols()
	live := make([]int, base.Rows())
	for i := range live {
		live[i] = i
	}
	nextID := base.Rows()
	log := make([]mutOp, 0, ops)
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.6 || len(live) == 0 {
			vec := make([]float64, d)
			for j := range vec {
				vec[j] = rng.NormFloat64()
			}
			log = append(log, mutOp{vec: vec})
			live = append(live, nextID)
			nextID++
		} else {
			j := rng.Intn(len(live))
			log = append(log, mutOp{del: true, id: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return log
}

// TestCompactDeterministic replays one fixed-seed mutation log under three
// compaction schedules (every 5 ops, every 17 ops, only at the end) and
// requires the final snapshot — row bytes and stable IDs — to be
// byte-identical regardless of when compactions ran. Epochs may differ
// (they count installs, which is timing); the data must not.
func TestCompactDeterministic(t *testing.T) {
	const n, d, ops = 90, 8, 140
	rng := rand.New(rand.NewSource(59))
	data := randMatrix(rng, n, d)
	log := recordOpLog(rand.New(rand.NewSource(61)), data, ops)
	ctx := context.Background()

	type final struct {
		ids  []int
		rows *linalg.Dense
		n    int
	}
	run := func(compactEvery int) final {
		e, err := New(data, mutTestConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i, op := range log {
			if op.del {
				if err := e.Delete(ctx, op.id); err != nil {
					t.Fatalf("schedule %d op %d delete %d: %v", compactEvery, i, op.id, err)
				}
			} else {
				if _, err := e.Insert(ctx, op.vec); err != nil {
					t.Fatalf("schedule %d op %d insert: %v", compactEvery, i, err)
				}
			}
			if compactEvery > 0 && (i+1)%compactEvery == 0 {
				if _, err := e.Compact(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := e.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		snap := e.snap.Load()
		ids := snap.ids
		if ids == nil {
			ids = make([]int, snap.n)
			for i := range ids {
				ids[i] = i
			}
		}
		return final{ids: append([]int(nil), ids...), rows: snap.exact, n: snap.n}
	}

	ref := run(0)
	for _, every := range []int{5, 17} {
		got := run(every)
		if got.n != ref.n {
			t.Fatalf("schedule %d: %d rows, want %d", every, got.n, ref.n)
		}
		for i := range ref.ids {
			if got.ids[i] != ref.ids[i] {
				t.Fatalf("schedule %d: ids[%d] = %d, want %d", every, i, got.ids[i], ref.ids[i])
			}
		}
		for r := 0; r < ref.n; r++ {
			gr, rr := got.rows.RawRow(r), ref.rows.RawRow(r)
			for c := range rr {
				if math.Float64bits(gr[c]) != math.Float64bits(rr[c]) {
					t.Fatalf("schedule %d: row %d col %d = %v, want %v (bit mismatch)",
						every, r, c, gr[c], rr[c])
				}
			}
		}
	}
}

// TestCompactAllDeleted drives the pathological schedule where every
// captured row is tombstoned: compaction must refuse to build an empty
// snapshot, keep the tombstones pending, and keep answering correctly.
func TestCompactAllDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n, d = 30, 5
	data := randMatrix(rng, n, d)
	e, err := New(data, mutTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ctx := context.Background()
	for id := 0; id < n; id++ {
		if err := e.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := e.Stats().Epoch
	epoch, err := e.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != epochBefore {
		t.Fatalf("all-deleted compaction advanced epoch %d -> %d", epochBefore, epoch)
	}
	if got := e.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
	res, err := e.SearchMode(ctx, data.RawRow(0), 3, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 0 {
		t.Fatalf("search over empty set returned %+v", res.Neighbors)
	}
	// The set recovers: an insert is served again and a compaction folds
	// everything down to the single survivor.
	vec := data.RawRow(3)
	id, err := e.Insert(ctx, vec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = e.SearchMode(ctx, vec, 2, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].Index != id {
		t.Fatalf("post-recovery search = %+v, want only id %d", res.Neighbors, id)
	}
}

// TestMutationCountersSurviveCompaction pins satellite 4: the mutation
// counters live outside the snapshot, so a compaction (which swaps the
// snapshot and restarts per-shard tallies) must not reset them.
func TestMutationCountersSurviveCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, d = 80, 6
	data := randMatrix(rng, n, d)
	e, err := New(data, mutTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := e.Insert(ctx, data.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 4; id++ {
		if err := e.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Inserts != 10 || st.Deletes != 4 {
		t.Fatalf("pre-compaction counters: inserts=%d deletes=%d, want 10/4", st.Inserts, st.Deletes)
	}
	if st.DeltaRows != 10 || st.Tombstones != 4 {
		t.Fatalf("pre-compaction depth: delta=%d tombstones=%d, want 10/4", st.DeltaRows, st.Tombstones)
	}
	if _, err := e.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Inserts != 10 || st.Deletes != 4 {
		t.Fatalf("post-compaction counters: inserts=%d deletes=%d, want 10/4 (reset across swap)", st.Inserts, st.Deletes)
	}
	if st.DeltaRows != 0 || st.Tombstones != 0 {
		t.Fatalf("post-compaction depth: delta=%d tombstones=%d, want 0/0", st.DeltaRows, st.Tombstones)
	}
	if st.Compactions != 1 || st.Swaps != 1 {
		t.Fatalf("compactions=%d swaps=%d, want 1/1", st.Compactions, st.Swaps)
	}
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", st.Epoch)
	}
	// Another round keeps accumulating rather than restarting.
	if _, err := e.Insert(ctx, data.RawRow(0)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Inserts != 11 {
		t.Fatalf("inserts = %d after 11th insert, want 11", st.Inserts)
	}
}

// TestLatencyQuantileResolution pins the histogram's resolution: over known
// uniform latency populations, Stats reports p50 and p99 within 5% of the
// true quantiles (20 bins per decade could only promise 6%, and read p99 as
// a bucket edge).
func TestLatencyQuantileResolution(t *testing.T) {
	for _, maxUS := range []int{1300, 2000, 5000, 8000, 10000} {
		e := newTestEngine(t, randMatrix(rand.New(rand.NewSource(97)), 8, 3), 1)
		for us := 1; us <= maxUS; us++ {
			e.lat.record(time.Duration(us) * time.Microsecond)
		}
		st := e.Stats()
		for _, c := range []struct {
			name string
			got  time.Duration
			q    float64
		}{{"LatencyP50", st.LatencyP50, 0.50}, {"LatencyP99", st.LatencyP99, 0.99}} {
			want := time.Duration(c.q*float64(maxUS)) * time.Microsecond
			if rel := math.Abs(float64(c.got-want)) / float64(want); rel > 0.05 {
				t.Errorf("uniform 1..%dµs: %s = %v, want %v within 5%% (off by %.1f%%)", maxUS, c.name, c.got, want, 100*rel)
			}
		}
	}
}

// FuzzMutationOps decodes an arbitrary byte string into a mutation op log —
// inserts, deletes of plausible and absent IDs, duplicate deletes,
// dimension mismatches, compactions — and asserts the engine never returns
// an untyped error, never diverges from the model's Len, and still matches
// a from-scratch rebuild at the end.
func FuzzMutationOps(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x81, 0x41, 0xc2, 0x10})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x80, 0x80, 0xff})
	f.Add([]byte("insert-delete-compact"))
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 256 {
			program = program[:256]
		}
		const n, d = 40, 5
		rng := rand.New(rand.NewSource(83))
		data := randMatrix(rng, n, d)
		e, err := New(data, mutTestConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ctx := context.Background()
		m := newMutModel(data)
		nextID := n
		for pc := 0; pc < len(program); pc++ {
			b := program[pc]
			arg := 0
			if pc+1 < len(program) {
				arg = int(program[pc+1])
			}
			switch b % 5 {
			case 0: // insert
				vec := make([]float64, d)
				for j := range vec {
					vec[j] = float64(arg) + float64(j)*0.25
				}
				id, err := e.Insert(ctx, vec)
				if err != nil {
					t.Fatalf("pc %d insert: %v", pc, err)
				}
				if id != nextID {
					t.Fatalf("pc %d insert id = %d, want %d", pc, id, nextID)
				}
				m.rows[id] = vec
				nextID++
			case 1: // delete an arbitrary (often absent or dead) ID
				id := arg
				err := e.Delete(ctx, id)
				if _, alive := m.rows[id]; alive {
					if err != nil {
						t.Fatalf("pc %d delete live %d: %v", pc, id, err)
					}
					delete(m.rows, id)
				} else if !errors.Is(err, ErrUnknownID) {
					t.Fatalf("pc %d delete dead/absent %d: err = %v, want ErrUnknownID", pc, id, err)
				}
			case 2: // dimension mismatch insert
				if _, err := e.Insert(ctx, make([]float64, d+1+arg%3)); !errors.Is(err, ErrDims) {
					t.Fatalf("pc %d mismatched insert err = %v, want ErrDims", pc, err)
				}
			case 3: // compact
				if _, err := e.Compact(ctx); err != nil {
					t.Fatalf("pc %d compact: %v", pc, err)
				}
			case 4: // expired-context mutation must be a typed deadline
				expired, cancel := context.WithCancel(ctx)
				cancel()
				if _, err := e.Insert(expired, make([]float64, d)); !errors.Is(err, ErrDeadline) {
					t.Fatalf("pc %d expired insert err = %v, want ErrDeadline", pc, err)
				}
			}
			if got := e.Len(); got != len(m.rows) {
				t.Fatalf("pc %d: Len = %d, model has %d", pc, got, len(m.rows))
			}
		}
		if len(m.rows) == 0 {
			return
		}
		queries := randMatrix(rand.New(rand.NewSource(89)), 4, d)
		checkBitIdentical(t, e, m, queries, 5, "fuzz-final")
	})
}
