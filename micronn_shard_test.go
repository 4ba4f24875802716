package micronn

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"micronn/internal/storage"
)

// shardTestDim keeps the sharded batteries cheap.
const shardTestDim = 16

// clusteredVecs samples a Gaussian mixture (IVF-friendly, like real
// embedding spaces) deterministically from seed.
func clusteredVecs(seed int64, n, dim, centers int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centerVecs := make([][]float32, centers)
	for c := range centerVecs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64() * 6)
		}
		centerVecs[c] = v
	}
	out := make([][]float32, n)
	for i := range out {
		c := centerVecs[rng.Intn(centers)]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func openShardedTest(t testing.TB, dir string, opts Options) *ShardedDB {
	t.Helper()
	sdb, err := OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	return sdb
}

// mirror applies the same randomized op stream to a single-store DB, a
// sharded DB and a one-shard ShardedDB, tracking the expected live set.
type mirror struct {
	t      *testing.T
	single *DB
	shard  *ShardedDB
	one    *ShardedDB
	live   map[string][]float32
}

func (m *mirror) upsertBatch(items []Item) {
	m.t.Helper()
	if err := m.single.UpsertBatch(items); err != nil {
		m.t.Fatal(err)
	}
	if err := m.shard.UpsertBatch(items); err != nil {
		m.t.Fatal(err)
	}
	if err := m.one.UpsertBatch(items); err != nil {
		m.t.Fatal(err)
	}
	for _, it := range items {
		m.live[it.ID] = it.Vector
	}
}

func (m *mirror) delete(id string) {
	m.t.Helper()
	err1 := m.single.Delete(id)
	err2 := m.shard.Delete(id)
	err3 := m.one.Delete(id)
	switch {
	case err1 == nil && err2 == nil && err3 == nil:
	case errors.Is(err1, ErrNotFound) && errors.Is(err2, ErrNotFound) && errors.Is(err3, ErrNotFound):
	default:
		m.t.Fatalf("delete %q semantics diverge: single=%v sharded=%v one-shard=%v", id, err1, err2, err3)
	}
	delete(m.live, id)
}

// recallAgainst measures recall@k of got against the exact ground truth.
func recallAgainst(exact, got []Result) float64 {
	if len(exact) == 0 {
		return 1
	}
	want := make(map[string]bool, len(exact))
	for _, r := range exact {
		want[r.ID] = true
	}
	hits := 0
	for _, r := range got {
		if want[r.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// TestShardedEquivalence is the equivalence property test: a randomized
// workload of upserts, deletes and re-upserts is applied identically to a
// single-store DB, a 3-shard DB and a 1-shard DB (float32, SQ8 and SQ4).
// The 3-shard Search/BatchSearch recall@10 must stay within 1 point of the
// single store's, measured against exact ground truth; Get and Delete
// semantics must match exactly. A single store and a one-shard router run
// the same pipeline, so their Search and BatchSearch responses must be
// identical, live and on snapshots.
func TestShardedEquivalence(t *testing.T) {
	for _, qt := range []Quantization{QuantNone, QuantSQ8, QuantSQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			const seed = 7
			rng := rand.New(rand.NewSource(seed))
			opts := Options{Dim: shardTestDim, TargetPartitionSize: 25, Seed: seed, Quantization: qt}
			single, err := Open(filepath.Join(t.TempDir(), "single.mnn"), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			shOpts := opts
			shOpts.Shards = 3
			sharded := openShardedTest(t, filepath.Join(t.TempDir(), "sharded.d"), shOpts)
			oneOpts := opts
			oneOpts.Shards = 1
			one := openShardedTest(t, filepath.Join(t.TempDir(), "one.d"), oneOpts)

			m := &mirror{t: t, single: single, shard: sharded, one: one, live: make(map[string][]float32)}
			vecs := clusteredVecs(seed, 1200, shardTestDim, 12)
			mkItems := func(lo, hi int) []Item {
				items := make([]Item, 0, hi-lo)
				for i := lo; i < hi; i++ {
					items = append(items, Item{ID: fmt.Sprintf("v%04d", i), Vector: vecs[i]})
				}
				return items
			}

			// Bootstrap, build both, then keep streaming: deletes, fresh
			// inserts, and re-upserts that move existing ids to new vectors.
			m.upsertBatch(mkItems(0, 600))
			if _, err := m.single.Rebuild(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.shard.Rebuild(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.one.Rebuild(); err != nil {
				t.Fatal(err)
			}
			m.upsertBatch(mkItems(600, 900))
			for i := 0; i < 150; i++ {
				m.delete(fmt.Sprintf("v%04d", rng.Intn(900)))
			}
			reup := make([]Item, 0, 100)
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("v%04d", rng.Intn(900))
				reup = append(reup, Item{ID: id, Vector: vecs[900+i]})
			}
			m.upsertBatch(reup)
			if _, err := m.single.Maintain(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.shard.Maintain(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.one.Maintain(); err != nil {
				t.Fatal(err)
			}

			// Counts must agree exactly.
			st1, err := m.single.Stats()
			if err != nil {
				t.Fatal(err)
			}
			st2, err := m.shard.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st1.NumVectors != st2.NumVectors || st1.NumVectors != int64(len(m.live)) {
				t.Fatalf("NumVectors: single %d, sharded %d, mirror %d", st1.NumVectors, st2.NumVectors, len(m.live))
			}
			if err := sharded.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// Search equivalence: recall@10 against exact ground truth, the
			// sharded store within 1 point of the single store.
			queries := clusteredVecs(seed+1, 30, shardTestDim, 12)
			var singleRecall, shardRecall float64
			for _, q := range queries {
				exact, err := m.single.Search(SearchRequest{Vector: q, K: 10, Exact: true})
				if err != nil {
					t.Fatal(err)
				}
				exactSh, err := m.shard.Search(SearchRequest{Vector: q, K: 10, Exact: true})
				if err != nil {
					t.Fatal(err)
				}
				if r := recallAgainst(exact.Results, exactSh.Results); r != 1 {
					t.Fatalf("sharded exact search disagrees with single store (recall %.2f)", r)
				}
				r1, err := m.single.Search(SearchRequest{Vector: q, K: 10, NProbe: 8})
				if err != nil {
					t.Fatal(err)
				}
				r2, err := m.shard.Search(SearchRequest{Vector: q, K: 10, NProbe: 8})
				if err != nil {
					t.Fatal(err)
				}
				singleRecall += recallAgainst(exact.Results, r1.Results)
				shardRecall += recallAgainst(exact.Results, r2.Results)
			}
			singleRecall /= float64(len(queries))
			shardRecall /= float64(len(queries))
			if shardRecall < singleRecall-0.01 {
				t.Errorf("sharded recall@10 %.3f more than 1pt below single-store %.3f", shardRecall, singleRecall)
			}

			// BatchSearch equivalence under the same gate.
			breq := BatchSearchRequest{Vectors: queries, K: 10, NProbe: 8}
			b1, err := m.single.BatchSearch(breq)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := m.shard.BatchSearch(breq)
			if err != nil {
				t.Fatal(err)
			}
			var batchSingle, batchShard float64
			for qi, q := range queries {
				exact, err := m.single.Search(SearchRequest{Vector: q, K: 10, Exact: true})
				if err != nil {
					t.Fatal(err)
				}
				batchSingle += recallAgainst(exact.Results, b1.Results[qi])
				batchShard += recallAgainst(exact.Results, b2.Results[qi])
			}
			batchSingle /= float64(len(queries))
			batchShard /= float64(len(queries))
			if batchShard < batchSingle-0.01 {
				t.Errorf("sharded batch recall@10 %.3f more than 1pt below single-store %.3f", batchShard, batchSingle)
			}

			// One shard: identical responses to the single store, live and
			// on snapshots.
			snap1, err := m.single.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap1.Close()
			snapOne, err := m.one.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snapOne.Close()
			pairs := []struct {
				name string
				a, b interface {
					Search(SearchRequest) (*SearchResponse, error)
					BatchSearch(BatchSearchRequest) (*BatchSearchResponse, error)
				}
			}{{"live", m.single, m.one}, {"snapshot", snap1, snapOne}}
			for _, p := range pairs {
				for qi, q := range queries {
					for _, req := range []SearchRequest{
						{Vector: q, K: 10, NProbe: 8},
						{Vector: q, K: 10, Exact: true},
					} {
						a, err := p.a.Search(req)
						if err != nil {
							t.Fatal(err)
						}
						b, err := p.b.Search(req)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("%s query %d (exact=%v): single store and one-shard router differ\nsingle:    %+v\none-shard: %+v",
								p.name, qi, req.Exact, a, b)
						}
					}
				}
				a, err := p.a.BatchSearch(breq)
				if err != nil {
					t.Fatal(err)
				}
				b, err := p.b.BatchSearch(breq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s batch: single store and one-shard router differ", p.name)
				}
			}

			// Get semantics: every live id returns the same vector from both
			// stores; a deleted id is ErrNotFound on both.
			checked := 0
			for id, want := range m.live {
				if checked >= 50 {
					break
				}
				checked++
				g1, err := m.single.Get(id)
				if err != nil {
					t.Fatalf("single Get(%q): %v", id, err)
				}
				g2, err := m.shard.Get(id)
				if err != nil {
					t.Fatalf("sharded Get(%q): %v", id, err)
				}
				for j := range want {
					if g1.Vector[j] != want[j] || g2.Vector[j] != want[j] {
						t.Fatalf("Get(%q) vector mismatch at dim %d", id, j)
					}
				}
			}
			if _, err := m.shard.Get("never-existed"); !errors.Is(err, ErrNotFound) {
				t.Errorf("sharded Get(absent) = %v, want ErrNotFound", err)
			}
			if err := m.shard.Delete("never-existed"); !errors.Is(err, ErrNotFound) {
				t.Errorf("sharded Delete(absent) = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestShardedTopologyValidation proves reopen validates the manifest: a
// mismatched shard count, a missing shard directory and a stray shard
// directory must all fail fast, while Shards=0 reopens cleanly.
func TestShardedTopologyValidation(t *testing.T) {
	skipIfEphemeralBackend(t)
	dir := filepath.Join(t.TempDir(), "topo.d")
	sdb, err := OpenSharded(dir, Options{Dim: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sdb.Upsert(Item{ID: "a", Vector: make([]float32, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSharded(dir, Options{Shards: 3}); err == nil {
		t.Fatal("reopen with mismatched shard count should fail")
	}

	stray := storage.ShardDir(dir, 5)
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(dir, Options{}); err == nil {
		t.Fatal("reopen with a stray shard directory should fail")
	}
	if err := os.RemoveAll(stray); err != nil {
		t.Fatal(err)
	}

	moved := filepath.Join(dir, "hidden")
	if err := os.Rename(storage.ShardDir(dir, 1), moved); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(dir, Options{}); err == nil {
		t.Fatal("reopen with a missing shard directory should fail")
	}
	if err := os.Rename(moved, storage.ShardDir(dir, 1)); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenSharded(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	item, err := reopened.Get("a")
	if err != nil || item.ID != "a" {
		t.Fatalf("Get after reopen: %+v, %v", item, err)
	}
	if reopened.Shards() != 2 {
		t.Errorf("Shards() = %d, want 2", reopened.Shards())
	}
}

// TestShardedCreateRetryAfterCrash proves creation is crash-repairable: the
// manifest commits creation last, so a create killed mid-way leaves a
// manifest-less directory that plain reopens reject but the same create
// call completes (existing shard stores just reopen).
func TestShardedCreateRetryAfterCrash(t *testing.T) {
	skipIfEphemeralBackend(t)
	dir := filepath.Join(t.TempDir(), "retry.d")
	sdb, err := OpenSharded(dir, Options{Dim: 8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewind to the on-disk state of a create killed before the manifest
	// commit and before shard 2's store existed.
	if err := os.Remove(filepath.Join(dir, storage.ManifestName)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(storage.ShardDir(dir, 2)); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSharded(dir, Options{}); err == nil {
		t.Fatal("reopen without create options should fail on a half-created directory")
	}
	// A retry with a smaller shard count must refuse the leftover shard
	// directories rather than commit a manifest that undercounts them
	// (which would make every later open fail the topology check).
	if _, err := OpenSharded(dir, Options{Dim: 8, Shards: 1}); err == nil {
		t.Fatal("create retry with fewer shards should refuse leftover shard directories")
	}
	retried, err := OpenSharded(dir, Options{Dim: 8, Shards: 3})
	if err != nil {
		t.Fatalf("create retry: %v", err)
	}
	defer retried.Close()
	if err := retried.Upsert(Item{ID: "x", Vector: make([]float32, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := retried.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRoutingSpread proves the hash spreads ids over every shard and
// that placement passes the cross-shard invariant check.
func TestShardedRoutingSpread(t *testing.T) {
	sdb := openShardedTest(t, filepath.Join(t.TempDir(), "spread.d"), Options{Dim: 8, Shards: 4, Seed: 3})
	vecs := randomVecs(3, 400, 8)
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("id-%d", i), Vector: v}
	}
	if err := sdb.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	per, err := sdb.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range per {
		if st.NumVectors == 0 {
			t.Errorf("shard %d received no vectors", i)
		}
	}
	if err := sdb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshot pins per-shard horizons: writes after Snapshot must
// stay invisible to it while the live handle sees them. It runs on one
// shard (the router over a single store) and on three.
func TestShardedSnapshot(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sdb := openShardedTest(t, filepath.Join(t.TempDir(), "snap.d"), Options{Dim: 8, Shards: shards, Seed: 5})
			vecs := randomVecs(5, 100, 8)
			items := make([]Item, len(vecs))
			for i, v := range vecs {
				items[i] = Item{ID: fmt.Sprintf("s-%d", i), Vector: v}
			}
			if err := sdb.UpsertBatch(items); err != nil {
				t.Fatal(err)
			}
			if _, err := sdb.Rebuild(); err != nil {
				t.Fatal(err)
			}

			snap, err := sdb.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()

			if err := sdb.Upsert(Item{ID: "late", Vector: vecs[0]}); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Get("late"); !errors.Is(err, ErrNotFound) {
				t.Errorf("snapshot sees post-snapshot write: %v", err)
			}
			if _, err := sdb.Get("late"); err != nil {
				t.Errorf("live handle misses committed write: %v", err)
			}
			st, err := snap.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.NumVectors != 100 {
				t.Errorf("snapshot NumVectors = %d, want 100", st.NumVectors)
			}
			resp, err := snap.Search(SearchRequest{Vector: vecs[1], K: 5, NProbe: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) == 0 {
				t.Error("snapshot search returned nothing")
			}
			bresp, err := snap.BatchSearch(BatchSearchRequest{Vectors: vecs[:4], K: 5, NProbe: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(bresp.Results) != 4 {
				t.Errorf("snapshot batch returned %d result lists, want 4", len(bresp.Results))
			}
		})
	}
}

// TestShardedConcurrentOps is the sharded -race hammer: Search, BatchSearch,
// Upsert, Delete and Stats run concurrently across goroutines while every
// shard's background maintainer flushes, splits and merges underneath them.
// Sized for the CI `-race -short` job.
func TestShardedConcurrentOps(t *testing.T) {
	skipIfEphemeralBackend(t) // bootstrap-then-reopen structure needs persistence
	dir := filepath.Join(t.TempDir(), "hammer.d")

	// Bootstrap and build without maintainers so later rebuilds would be a
	// policy violation.
	boot, err := OpenSharded(dir, Options{Dim: 8, Shards: 3, TargetPartitionSize: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seed := clusteredVecs(3, 300, 8, 8)
	items := make([]Item, len(seed))
	for i, v := range seed {
		items[i] = Item{ID: fmt.Sprintf("s%d", i), Vector: v}
	}
	if err := boot.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}

	sdb, err := OpenSharded(dir, Options{
		TargetPartitionSize: 20, Seed: 1, FlushThreshold: 25,
		AutoMaintain: true, MaintainInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()

	const writerOps = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			queries := clusteredVecs(int64(10+s), 40, 8, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sdb.Search(SearchRequest{Vector: queries[i%len(queries)], K: 5, NProbe: 4}); err != nil {
					fail(fmt.Errorf("searcher %d: %w", s, err))
					return
				}
			}
		}(s)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		queries := clusteredVecs(20, 16, 8, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sdb.BatchSearch(BatchSearchRequest{Vectors: queries, K: 5, NProbe: 4}); err != nil {
				fail(fmt.Errorf("batch searcher: %w", err))
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sdb.Stats(); err != nil {
				fail(fmt.Errorf("stats: %w", err))
				return
			}
		}
	}()

	deleted := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		vecs := clusteredVecs(4, writerOps, 8, 8)
		for i, v := range vecs {
			if err := sdb.Upsert(Item{ID: fmt.Sprintf("w%d", i), Vector: v}); err != nil {
				fail(fmt.Errorf("upsert %d: %w", i, err))
				return
			}
			if i%5 == 4 {
				if err := sdb.Delete(fmt.Sprintf("w%d", i-2)); err != nil && !errors.Is(err, ErrNotFound) {
					fail(fmt.Errorf("delete %d: %w", i-2, err))
					return
				}
				deleted++
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if _, err := sdb.Maintain(); err != nil {
		t.Fatal(err)
	}
	st, err := sdb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(300 + writerOps - deleted)
	if st.NumVectors != want {
		t.Errorf("NumVectors = %d, want %d", st.NumVectors, want)
	}
	if st.Maintenance.Rebuilds != 0 {
		t.Errorf("background maintainers performed %d rebuilds on built indexes", st.Maintenance.Rebuilds)
	}
	if err := sdb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
