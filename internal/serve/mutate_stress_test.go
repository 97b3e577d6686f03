package serve

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMutateStress is the satellite-2 race harness: concurrent writers,
// readers and forced compactions over one engine, with lost/duplicate
// accounting on every op slot. It is most valuable under `go test -race`
// (the CI mutate-stress job); without the race detector it still checks
// the acknowledgement invariants.
func TestMutateStress(t *testing.T) {
	ops := 6000
	if testing.Short() {
		ops = 1500
	}
	rng := rand.New(rand.NewSource(97))
	const n, d, nq = 400, 16, 64
	data := randMatrix(rng, n, d)
	queries := randMatrix(rng, nq, d)

	e, err := New(data, Config{
		Shards:     4,
		QueueDepth: 8192,
		CompactAt:  192, // force several mid-run background compactions
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	// A dedicated goroutine forces synchronous compactions while the load
	// runs, on top of the background ones the CompactAt watermark triggers,
	// so capture/build/install races with both readers and writers.
	stop := make(chan struct{})
	var forced atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if _, err := e.Compact(context.Background()); err == nil {
					forced.Add(1)
				}
			}
		}
	}()

	rep, live, err := RunLoad(context.Background(), e, data, queries, LoadConfig{
		Ops:           ops,
		Concurrency:   16,
		WriteFraction: 0.25,
		K:             8,
		Seed:          131,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if rep.Lost != 0 || rep.Duplicated != 0 {
		t.Fatalf("accounting violations: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	if rep.DeletedIDHits != 0 {
		t.Fatalf("deleted IDs returned to readers %d times", rep.DeletedIDHits)
	}
	if rep.StaleAcks != 0 {
		t.Fatalf("%d acked inserts invisible to later exact reads", rep.StaleAcks)
	}
	if rep.UnknownID != 0 || rep.OtherErrors != 0 {
		t.Fatalf("untyped or impossible errors: unknownID=%d other=%d", rep.UnknownID, rep.OtherErrors)
	}
	if rep.Reads+rep.Inserts+rep.Deletes+rep.Overloaded+rep.DeadlineExceeded != rep.Ops {
		t.Fatalf("outcomes do not partition ops: %+v", rep)
	}
	if rep.Compactions == 0 {
		t.Fatalf("no compaction ran (forced=%d); stress never exercised the install path", forced.Load())
	}
	if rep.FinalRows != len(live.IDs) {
		t.Fatalf("report FinalRows=%d, live set has %d", rep.FinalRows, len(live.IDs))
	}

	// Quiesce, then hold the survivors to bit-identity against a rebuild.
	if _, err := e.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMutated(context.Background(), e, live, queries, 8, 24); err != nil {
		t.Fatal(err)
	}
	if got := e.Len(); got != len(live.IDs) {
		t.Fatalf("engine Len=%d, ground truth %d", got, len(live.IDs))
	}
	// The compactor is the only writer of the snapshot pointer: every epoch
	// past the first is one counted compaction, background or forced.
	if st := e.Stats(); st.Swaps != st.Compactions || st.Epoch != 1+st.Compactions {
		t.Fatalf("swaps=%d compactions=%d epoch=%d, want swaps == compactions == epoch-1",
			st.Swaps, st.Compactions, st.Epoch)
	}
}

// TestMutateStressJobListResolves holds the hand-written -run alternation of
// CI's mutate-stress job to the tree: every name in it must be a Test
// function of this package, or a rename quietly shrinks the race gate.
func TestMutateStressJobListResolves(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	_, job, ok := strings.Cut(string(ci), "\n  mutate-stress:\n")
	if !ok {
		t.Fatal("ci.yml has no mutate-stress job")
	}
	m := regexp.MustCompile(`-run '([^']+)'`).FindStringSubmatch(job)
	if m == nil {
		t.Fatal("the mutate-stress job has no -run '…' list")
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
	}
	for _, name := range strings.Split(m[1], "|") {
		if !strings.HasPrefix(name, "Test") || !declared[name] {
			t.Errorf("mutate-stress runs %q, which is not a Test function of internal/serve", name)
		}
	}
}
