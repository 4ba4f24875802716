package micronn

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

func openErrTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "err.mnn"), Options{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestTypedErrNotFound(t *testing.T) {
	db := openErrTestDB(t)
	if _, err := db.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing): %v, want ErrNotFound", err)
	}
	if err := db.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(missing): %v, want ErrNotFound", err)
	}
}

func TestTypedErrBadRequest(t *testing.T) {
	db := openErrTestDB(t)
	q := []float32{1, 0, 0, 0}
	for _, req := range []SearchRequest{
		{Vector: q, K: -1},
		{Vector: q, K: 5, NProbe: -2},
		{Vector: q, K: 5, RerankFactor: -1},
	} {
		if _, err := db.Search(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Search(%+v): %v, want ErrBadRequest", req, err)
		}
	}
	if _, err := db.BatchSearch(BatchSearchRequest{Vectors: [][]float32{q}, K: -3}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("BatchSearch with negative K did not return ErrBadRequest")
	}
	checkNonFiniteRejected(t, db)
	// Create-time option validation uses the same sentinel.
	if _, err := Open(filepath.Join(t.TempDir(), "bad.mnn"), Options{Dim: 4, Quantization: Quantization(9)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Open with unknown quantization: %v, want ErrBadRequest", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "bad2.mnn"), Options{Dim: 4, ClipPercentile: 0.5}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Open with ClipPercentile 0.5: %v, want ErrBadRequest", err)
	}
}

func TestTypedErrDimMismatch(t *testing.T) {
	db := openErrTestDB(t)
	if err := db.Upsert(Item{ID: "a", Vector: []float32{1, 2}}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Upsert wrong dim: %v, want ErrDimMismatch", err)
	}
	if _, err := db.Search(SearchRequest{Vector: []float32{1, 2, 3}, K: 5}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Search wrong dim: %v, want ErrDimMismatch", err)
	}
	// The batch path names the offending query index.
	_, err := db.BatchSearch(BatchSearchRequest{
		Vectors: [][]float32{{1, 0, 0, 0}, {1, 2}}, K: 5,
	})
	if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("BatchSearch wrong dim: %v, want ErrDimMismatch", err)
	}
	if got := err.Error(); !containsStr(got, "query 1") {
		t.Fatalf("batch dim error %q does not name the offending query", got)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestTypedErrClosedDB(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "closed.mnn"), Options{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Item{ID: "a", Vector: []float32{1, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close: %v, want nil", err)
	}
	q := []float32{1, 0, 0, 0}
	checks := []struct {
		name string
		err  error
	}{
		{"Search", func() error { _, err := db.Search(SearchRequest{Vector: q, K: 1}); return err }()},
		{"BatchSearch", func() error {
			_, err := db.BatchSearch(BatchSearchRequest{Vectors: [][]float32{q}, K: 1})
			return err
		}()},
		{"Upsert", db.Upsert(Item{ID: "b", Vector: q})},
		{"Get", func() error { _, err := db.Get("a"); return err }()},
		{"Delete", db.Delete("a")},
		{"Stats", func() error { _, err := db.Stats(); return err }()},
		{"Rebuild", func() error { _, err := db.Rebuild(); return err }()},
		{"Maintain", func() error { _, err := db.Maintain(); return err }()},
		{"Snapshot", func() error { _, err := db.Snapshot(); return err }()},
	}
	for _, c := range checks {
		if !errors.Is(c.err, ErrClosed) {
			t.Fatalf("%s after Close: %v, want ErrClosed", c.name, c.err)
		}
	}
}

func TestTypedErrClosedSharded(t *testing.T) {
	sdb, err := OpenSharded(filepath.Join(t.TempDir(), "closed.d"), Options{Dim: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatalf("double Close: %v, want nil", err)
	}
	q := []float32{1, 0, 0, 0}
	if _, err := sdb.Search(SearchRequest{Vector: q, K: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded Search after Close: %v, want ErrClosed", err)
	}
	if _, err := sdb.BatchSearch(BatchSearchRequest{Vectors: [][]float32{q}, K: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded BatchSearch after Close: %v, want ErrClosed", err)
	}
	if _, err := sdb.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := sdb.Upsert(Item{ID: "a", Vector: q}); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded Upsert after Close: %v, want ErrClosed", err)
	}
}

func TestShardedTypedErrorsMatchSingle(t *testing.T) {
	sdb := openShardedTest(t, filepath.Join(t.TempDir(), "typed.d"), Options{Dim: 4, Shards: 3})
	if _, err := sdb.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("sharded Get(missing): %v, want ErrNotFound", err)
	}
	if _, err := sdb.Search(SearchRequest{Vector: []float32{1, 2}, K: 1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("sharded Search wrong dim: %v, want ErrDimMismatch", err)
	}
	if _, err := sdb.Search(SearchRequest{Vector: []float32{1, 0, 0, 0}, K: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("sharded Search negative K: %v, want ErrBadRequest", err)
	}
	checkNonFiniteRejected(t, sdb)
}

// checkNonFiniteRejected: a NaN or ±Inf vector component is ErrBadRequest
// on every query kind, live and on a snapshot, and on writes — where the
// rejected batch must leave none of its items behind. The store has Dim 4.
func checkNonFiniteRejected(t *testing.T, db Store) {
	t.Helper()
	ok := []float32{1, 0, 0, 0}
	bad := map[string][]float32{
		"NaN":  {1, float32(math.NaN()), 0, 0},
		"+Inf": {float32(math.Inf(1)), 0, 0, 0},
		"-Inf": {1, 0, 0, float32(math.Inf(-1))},
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for name, v := range bad {
		for _, r := range []interface {
			Search(SearchRequest) (*SearchResponse, error)
			BatchSearch(BatchSearchRequest) (*BatchSearchResponse, error)
			HybridSearch(HybridRequest) (*HybridResponse, error)
		}{db, snap} {
			if _, err := r.Search(SearchRequest{Vector: v, K: 1}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%T Search with %s: %v, want ErrBadRequest", r, name, err)
			}
			if _, err := r.Search(SearchRequest{Vector: v, K: 1, Exact: true}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%T exact Search with %s: %v, want ErrBadRequest", r, name, err)
			}
			if _, err := r.BatchSearch(BatchSearchRequest{Vectors: [][]float32{ok, v}, K: 1}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%T BatchSearch with %s: %v, want ErrBadRequest", r, name, err)
			}
			if _, err := r.HybridSearch(HybridRequest{Vector: v, K: 1}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%T HybridSearch with %s: %v, want ErrBadRequest", r, name, err)
			}
		}
		items := []Item{{ID: "fin-" + name, Vector: ok}, {ID: "bad-" + name, Vector: v}}
		if err := db.UpsertBatch(items); !errors.Is(err, ErrBadRequest) {
			t.Errorf("UpsertBatch with %s: %v, want ErrBadRequest", name, err)
		}
		if err := db.Upsert(items[1]); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Upsert with %s: %v, want ErrBadRequest", name, err)
		}
		for _, it := range items {
			if _, err := db.Get(it.ID); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get(%q) after a rejected batch: %v, want ErrNotFound", it.ID, err)
			}
		}
	}
}

func TestParseQuantization(t *testing.T) {
	for name, want := range map[string]Quantization{
		"": QuantNone, "none": QuantNone, "sq8": QuantSQ8, "sq4": QuantSQ4,
	} {
		got, err := ParseQuantization(name)
		if err != nil || got != want {
			t.Fatalf("ParseQuantization(%q) = %v, %v; want %v", name, got, err, want)
		}
		if name != "" && got.String() != name {
			t.Fatalf("String round trip: %q -> %q", name, got.String())
		}
	}
	if _, err := ParseQuantization("pq"); err == nil {
		t.Fatal("ParseQuantization accepted unknown scheme")
	}
}

func TestEnvQuantOverride(t *testing.T) {
	t.Setenv(EnvQuantVar, "sq4")
	db, err := Open(filepath.Join(t.TempDir(), "env.mnn"), Options{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quantization != QuantSQ4 {
		t.Fatalf("env override quantization: %v, want sq4", st.Quantization)
	}
	// Explicit options always win over the environment.
	db2, err := Open(filepath.Join(t.TempDir(), "env2.mnn"), Options{Dim: 4, Quantization: QuantSQ8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st, err = db2.Stats(); err != nil || st.Quantization != QuantSQ8 {
		t.Fatalf("explicit quantization: %v, %v; want sq8", st.Quantization, err)
	}
	// A bogus value fails loudly rather than silently running unquantized.
	t.Setenv(EnvQuantVar, "sq2")
	if _, err := Open(filepath.Join(t.TempDir(), "env3.mnn"), Options{Dim: 4}); err == nil {
		t.Fatal("bogus MICRONN_TEST_QUANT accepted")
	}
}

func TestNormalizeSearchDefaults(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "norm.mnn"), Options{Dim: 4, Quantization: QuantSQ8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 30; i++ {
		if err := db.Upsert(Item{ID: fmt.Sprintf("n%02d", i), Vector: []float32{float32(i), 1, 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	// K defaults to 10; zero NProbe picks the config default; requests are
	// normalized once through the shared path, so a zero-valued request
	// succeeds on every entry point.
	resp, err := db.Search(SearchRequest{Vector: []float32{3, 1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 10 {
		t.Fatalf("defaulted K: got %d results, want 10", len(resp.Results))
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := snap.Search(SearchRequest{Vector: []float32{3, 1, 0, 0}}); err != nil {
		t.Fatalf("snapshot zero-valued search: %v", err)
	}
	if _, err := snap.Search(SearchRequest{Vector: []float32{3, 1}, K: 2}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("snapshot wrong dim: %v, want ErrDimMismatch", err)
	}
}
