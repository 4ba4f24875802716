package micronn

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"micronn/internal/storage"
)

// Store is the method set shared by DB and ShardedDB. Both run their
// queries through one pipeline — a DB is a one-shard router over itself, a
// ShardedDB a router over N shards — so code that should run identically
// against a single store and a sharded one (the CLI, benchmarks, examples)
// programs against this interface, snapshots included.
type Store interface {
	Close() error
	Dim() int
	Upsert(Item) error
	UpsertBatch([]Item) error
	Delete(string) error
	DeleteBatch([]string) error
	Get(string) (*Item, error)
	Search(SearchRequest) (*SearchResponse, error)
	HybridSearch(HybridRequest) (*HybridResponse, error)
	BatchSearch(BatchSearchRequest) (*BatchSearchResponse, error)
	Snapshot() (*Snapshot, error)
	Rebuild() (*MaintenanceReport, error)
	FlushDelta() (*MaintenanceReport, error)
	Maintain() (*MaintenanceReport, error)
	Analyze() error
	Checkpoint() error
	DropCaches()
	Stats() (Stats, error)
}

// Both database flavors implement Store.
var (
	_ Store = (*DB)(nil)
	_ Store = (*ShardedDB)(nil)
)

// ShardedDB is a MicroNN database hash-partitioned across N fully
// independent stores. Each shard is a complete single-store database — its
// own page file, WAL, IVF index, SQ8 codebook and background maintainer —
// living under one directory whose manifest pins the shard count and hash
// seed (see storage.Manifest). Items route to shards by a seeded hash of
// their id: point operations (Upsert, Delete, Get) touch exactly one shard,
// and maintenance runs per shard so a split in one shard never stalls
// writers in another.
//
// Queries run through the same pipeline as a single store, a router, here
// over N shards: each query kind scans every shard in parallel and merges
// the per-shard outputs. The probe budget is spread over the shard set —
// each shard scans ceil(NProbe/N) partitions plus its own delta — so the
// total scanned volume stays comparable to a single store at the same
// NProbe. On a quantized database the shards return approximate candidates
// which are pooled, cut to RerankFactor*K globally, and reranked exactly on
// their owning shards, so recall matches the single-store rerank contract
// rather than compounding per-shard approximations. One result cache
// serves the whole database with per-shard generation validation.
//
// Cross-shard guarantees are deliberately weaker than within a shard:
// UpsertBatch/DeleteBatch commit one transaction per shard (atomic per
// shard, not across shards), and a Snapshot pins each shard's own commit
// horizon (consistent per shard, concurrent cross-shard writes may straddle
// the horizons). All methods are safe for concurrent use.
type ShardedDB struct {
	router

	dir      string
	manifest storage.Manifest

	// closed flips once in Close; every later operation observes it and
	// returns ErrClosed (the same contract as DB.closed).
	closed atomic.Bool
}

// OpenSharded opens or creates a sharded database in dir. On creation
// Options.Shards (>= 1) and Options.Dim are required; the shard count and
// hash seed are persisted in the directory manifest and are immutable
// thereafter — reopening validates them and fails on any topology mismatch
// (a different Shards value, a missing shard directory, or a stray one).
// All other Options apply to every shard; a zero Device.Workers is divided
// across the shards so the scatter phase does not oversubscribe the cores,
// and the Device cache budget is split evenly so the documented budget
// bounds the whole database, not each shard.
func OpenSharded(dir string, opts Options) (*ShardedDB, error) {
	m, ok, err := storage.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	creating := !ok
	if creating {
		if opts.Shards < 1 {
			return nil, fmt.Errorf("micronn: Shards required to create a sharded database")
		}
		if opts.Dim <= 0 {
			return nil, fmt.Errorf("micronn: Dim required to create a sharded database")
		}
		m = storage.Manifest{Version: 1, Shards: opts.Shards, HashSeed: uint64(opts.Seed)}
		if opts.Backend != BackendDefault {
			// Record an explicit backend choice so every reopen runs the
			// same engine on every shard.
			m.Backend = opts.Backend.String()
		}
		if opts.Backend != BackendMemory {
			for i := 0; i < m.Shards; i++ {
				if err := os.MkdirAll(storage.ShardDir(dir, i), 0o755); err != nil {
					return nil, err
				}
			}
			// A create retried with a different Shards value must not adopt
			// a half-created directory's leftover shards: committing a
			// manifest that undercounts them would make every later open
			// fail the topology check, bricking the database.
			if err := storage.ValidateManifestDir(dir, m); err != nil {
				return nil, err
			}
		}
	} else {
		if opts.Shards != 0 && opts.Shards != m.Shards {
			return nil, fmt.Errorf("micronn: database has %d shards, Options.Shards = %d", m.Shards, opts.Shards)
		}
		if mk := m.BackendKindOf(); opts.Backend != BackendDefault && mk != BackendDefault && opts.Backend != mk {
			return nil, fmt.Errorf("micronn: database backend is %s, Options.Backend = %s", mk, opts.Backend)
		}
		if err := storage.ValidateManifestDir(dir, m); err != nil {
			return nil, err
		}
	}

	shOpts := opts
	shOpts.Shards = 0
	if shOpts.Backend == BackendDefault {
		// A manifest-pinned backend applies to every shard; otherwise each
		// shard auto-detects from its own store header.
		shOpts.Backend = m.BackendKindOf()
	}
	if shOpts.Device.CacheBytes == 0 {
		shOpts.Device = DeviceLarge
	}
	if shOpts.Device.Workers == 0 {
		shOpts.Device.Workers = runtime.GOMAXPROCS(0) / m.Shards
		if shOpts.Device.Workers < 1 {
			shOpts.Device.Workers = 1
		}
	}
	shOpts.Device.CacheBytes /= int64(m.Shards)
	if shOpts.Device.CacheBytes < 1<<20 {
		shOpts.Device.CacheBytes = 1 << 20
	}
	if shOpts.Device.WriteBufferBytes > 0 {
		shOpts.Device.WriteBufferBytes /= int64(m.Shards)
		if shOpts.Device.WriteBufferBytes < 1<<20 {
			shOpts.Device.WriteBufferBytes = 1 << 20
		}
	}

	sdb := &ShardedDB{dir: dir, manifest: m}
	sdb.shards, sdb.seed, sdb.cache = make([]*DB, m.Shards), m.HashSeed, opts.ResultCache.resolve()
	for i := range sdb.shards {
		// Result caching happens at the router; the shards get no cache.
		db, err := open(storage.ShardDBPath(dir, i), shOpts, nil)
		if err != nil {
			for j := 0; j < i; j++ {
				sdb.shards[j].Close()
			}
			return nil, fmt.Errorf("micronn: open shard %d: %w", i, err)
		}
		sdb.shards[i] = db
	}
	if creating && opts.Backend != BackendMemory {
		// The manifest is the commit record of creation, written only once
		// every shard store exists: a crash mid-create leaves a directory
		// with no manifest, which the same create call completes on retry
		// (existing shard stores just reopen). An explicitly memory-backed
		// database writes neither manifest nor shard directories — the
		// ephemeral contract is that nothing touches the filesystem, so a
		// "reopen" finds nothing and must be a full create again.
		if err := storage.WriteManifest(dir, m); err != nil {
			sdb.Close()
			return nil, err
		}
	}
	return sdb, nil
}

// ephemeral reports whether this sharded database was explicitly created
// on the memory backend (no manifest or shard directories on disk).
func (s *ShardedDB) ephemeral() bool {
	return s.manifest.BackendKindOf() == BackendMemory
}

// FNV-1a 64 parameters for the id hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shardIndex routes an id: FNV-1a over the seed bytes then the id bytes,
// reduced modulo the shard count. The seed lives in the manifest, so every
// open of the same database routes identically.
func shardIndex(seed uint64, id string, n int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// Shards returns the shard count.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// Shard exposes one underlying single-store database (benchmarks, tools and
// the invariant battery).
func (s *ShardedDB) Shard(i int) *DB { return s.shards[i] }

// Manifest returns the pinned topology.
func (s *ShardedDB) Manifest() storage.Manifest { return s.manifest }

// Dim returns the configured vector dimensionality.
func (s *ShardedDB) Dim() int { return s.shards[0].Dim() }

// Close drains every shard's background maintainer in parallel, then
// checkpoints and closes each shard. All shards are closed even if some
// fail; the joined error is returned.
func (s *ShardedDB) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *DB) {
			defer wg.Done()
			errs[i] = sh.Close()
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkOpen returns ErrClosed once Close has been called.
func (s *ShardedDB) checkOpen() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return nil
}

// --- point operations: route by hash ---

// Upsert inserts or replaces one item on its hash-designated shard.
func (s *ShardedDB) Upsert(item Item) error {
	return s.shards[s.shardOf(item.ID)].Upsert(item)
}

// UpsertBatch groups the items by shard and commits one transaction per
// shard, in parallel. Atomicity is per shard: a failure on one shard does
// not roll back sub-batches already committed on others.
func (s *ShardedDB) UpsertBatch(items []Item) error {
	if len(s.shards) == 1 {
		return s.shards[0].UpsertBatch(items)
	}
	// Validate the whole batch first: no shard may commit its part of a
	// batch another shard rejects.
	if err := checkItems(items, s.Dim()); err != nil {
		return err
	}
	groups := make([][]Item, len(s.shards))
	for _, item := range items {
		i := s.shardOf(item.ID)
		groups[i] = append(groups[i], item)
	}
	return s.scatter(func(i int, sh *DB, _ <-chan struct{}) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return sh.UpsertBatch(groups[i])
	})
}

// Delete removes the item from its hash-designated shard.
func (s *ShardedDB) Delete(id string) error {
	return s.shards[s.shardOf(id)].Delete(id)
}

// DeleteBatch groups ids by shard and commits one transaction per shard, in
// parallel; absent ids are ignored. Atomicity is per shard.
func (s *ShardedDB) DeleteBatch(ids []string) error {
	if len(s.shards) == 1 {
		return s.shards[0].DeleteBatch(ids)
	}
	groups := make([][]string, len(s.shards))
	for _, id := range ids {
		i := s.shardOf(id)
		groups[i] = append(groups[i], id)
	}
	return s.scatter(func(i int, sh *DB, _ <-chan struct{}) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return sh.DeleteBatch(groups[i])
	})
}

// Get returns the stored item from its hash-designated shard.
func (s *ShardedDB) Get(id string) (*Item, error) {
	return s.shards[s.shardOf(id)].Get(id)
}

// Search scatters the query to every shard in parallel and merges the
// per-shard results (same semantics as DB.Search). With the result cache
// enabled, a repeat whose per-shard data generations all still match is
// served without touching any shard, and a repeat where only some shards
// changed re-scans just those shards, merging their fresh candidates with
// the cached ones.
func (s *ShardedDB) Search(req SearchRequest) (*SearchResponse, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return s.search(nil, req)
}

// BatchSearch scatters the whole batch to every shard — each shard runs its
// own multi-query-optimized BatchSearch over the full query set, so the MQO
// partition-scan sharing is preserved within every shard — then merges the
// per-shard per-query candidates exactly like Search does, caching
// included.
func (s *ShardedDB) BatchSearch(req BatchSearchRequest) (*BatchSearchResponse, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return s.batchSearch(nil, req)
}

// ResultCacheStats returns the router-level result cache counters (zeros
// when the cache is disabled).
func (s *ShardedDB) ResultCacheStats() CacheStats { return cacheStatsOf(s.cache) }

// --- maintenance and stats: aggregate over the shard set ---

// mergeReports folds per-shard maintenance reports into one.
func mergeReports(reps []*MaintenanceReport) *MaintenanceReport {
	out := &MaintenanceReport{Action: "none"}
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		if rep.Action != "" && rep.Action != "none" {
			if out.Action == "none" {
				out.Action = rep.Action
			} else if out.Action != rep.Action {
				out.Action += "+" + rep.Action
			}
		}
		out.Steps += rep.Steps
		out.Rebuilds += rep.Rebuilds
		out.Flushes += rep.Flushes
		out.Splits += rep.Splits
		out.Merges += rep.Merges
		out.Compactions += rep.Compactions
		out.Duration += rep.Duration
		out.RowChanges += rep.RowChanges
		out.VectorsAssigned += rep.VectorsAssigned
		out.Partitions += rep.Partitions
	}
	return out
}

// maintainEach runs one maintenance call on every shard in parallel and
// merges the reports.
func (s *ShardedDB) maintainEach(fn func(*DB) (*MaintenanceReport, error)) (*MaintenanceReport, error) {
	reps := make([]*MaintenanceReport, len(s.shards))
	err := s.scatter(func(i int, sh *DB, _ <-chan struct{}) error {
		var err error
		reps[i], err = fn(sh)
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeReports(reps), nil
}

// Rebuild retrains every shard's IVF index in parallel and merges the
// reports.
func (s *ShardedDB) Rebuild() (*MaintenanceReport, error) { return s.maintainEach((*DB).Rebuild) }

// FlushDelta flushes every shard's delta-store in parallel.
func (s *ShardedDB) FlushDelta() (*MaintenanceReport, error) {
	return s.maintainEach((*DB).FlushDelta)
}

// Maintain runs the incremental maintenance policy on every shard in
// parallel (each step in its own short per-shard write transaction) and
// merges the reports.
func (s *ShardedDB) Maintain() (*MaintenanceReport, error) { return s.maintainEach((*DB).Maintain) }

// Analyze refreshes every shard's attribute statistics.
func (s *ShardedDB) Analyze() error {
	return s.scatter(func(_ int, sh *DB, _ <-chan struct{}) error { return sh.Analyze() })
}

// Checkpoint folds every shard's WAL into its main file.
func (s *ShardedDB) Checkpoint() error {
	return s.scatter(func(_ int, sh *DB, _ <-chan struct{}) error { return sh.Checkpoint() })
}

// DropCaches empties every shard's buffer pool and in-memory centroid
// cache in parallel, plus the router-level result cache, simulating the
// paper's ColdStart scenario across the whole database — the cold-start
// legs of the bench scenarios drive sharded databases through this exactly
// like single stores, and a cold query must pay the scatter, not replay a
// cached response.
func (s *ShardedDB) DropCaches() {
	if s.cache != nil {
		s.cache.Clear()
	}
	_ = s.scatter(func(_ int, sh *DB, _ <-chan struct{}) error {
		sh.DropCaches()
		return nil // DropCaches cannot fail
	})
}

// AggregateStats folds per-shard stats into whole-database numbers: counts,
// cache and file sizes sum; the partition-size bounds are the min/max over
// shards; NeedsRebuild is true if any shard needs one. ShardedDB.Stats is
// AggregateStats over ShardStats; callers that already hold the per-shard
// slice (e.g. to print a breakdown) can aggregate it without a second
// scatter.
func AggregateStats(per []Stats) Stats {
	var out Stats
	for _, st := range per {
		out.NumVectors += st.NumVectors
		out.DeltaCount += st.DeltaCount
		out.NumPartitions += st.NumPartitions
		if st.SmallestPartition > 0 && (out.SmallestPartition == 0 || st.SmallestPartition < out.SmallestPartition) {
			out.SmallestPartition = st.SmallestPartition
		}
		if st.LargestPartition > out.LargestPartition {
			out.LargestPartition = st.LargestPartition
		}
		out.NeedsRebuild = out.NeedsRebuild || st.NeedsRebuild
		out.Maintenance.Passes += st.Maintenance.Passes
		out.Maintenance.Rebuilds += st.Maintenance.Rebuilds
		out.Maintenance.Flushes += st.Maintenance.Flushes
		out.Maintenance.Splits += st.Maintenance.Splits
		out.Maintenance.Merges += st.Maintenance.Merges
		out.Maintenance.Compactions += st.Maintenance.Compactions
		out.Maintenance.StaleRetries += st.Maintenance.StaleRetries
		out.Maintenance.RowChanges += st.Maintenance.RowChanges
		out.Maintenance.Errors += st.Maintenance.Errors
		out.Ingest.Enabled = out.Ingest.Enabled || st.Ingest.Enabled
		out.Ingest.GroupCommits += st.Ingest.GroupCommits
		out.Ingest.GroupedOps += st.Ingest.GroupedOps
		if st.Ingest.MaxGroupSize > out.Ingest.MaxGroupSize {
			out.Ingest.MaxGroupSize = st.Ingest.MaxGroupSize
		}
		out.Ingest.Seals += st.Ingest.Seals
		out.Ingest.SealedRows += st.Ingest.SealedRows
		out.Ingest.SealFailures += st.Ingest.SealFailures
		if out.Ingest.LastSealError == "" {
			out.Ingest.LastSealError = st.Ingest.LastSealError
		}
		out.Ingest.RunCount += st.Ingest.RunCount
		out.Ingest.RunRows += st.Ingest.RunRows
		out.Ingest.TombstoneRows += st.Ingest.TombstoneRows
		out.Ingest.UnmergedItems += st.Ingest.UnmergedItems
		out.Ingest.BackpressureTriggers += st.Ingest.BackpressureTriggers
		out.Ingest.BackpressureWaits += st.Ingest.BackpressureWaits
		out.Ingest.BackpressureWaitNs += st.Ingest.BackpressureWaitNs
		out.Ingest.ZonePruneChecks += st.Ingest.ZonePruneChecks
		out.Ingest.ZonePrunedRuns += st.Ingest.ZonePrunedRuns
		out.GateWaits += st.GateWaits
		out.GateWaitNs += st.GateWaitNs
		if st.LastMaintainAction != "" {
			out.LastMaintainAction = st.LastMaintainAction
		}
		if st.Backend != "" {
			// All shards run one engine (the manifest pins any explicit
			// choice), so the last one stands for the database.
			out.Backend = st.Backend
		}
		if st.Quantization != QuantNone {
			// Like Backend: every shard shares one quantization config.
			out.Quantization = st.Quantization
			out.ClipPercentile = st.ClipPercentile
		}
		out.CacheBytes += st.CacheBytes
		out.CacheBudget += st.CacheBudget
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
		out.CacheEvictions += st.CacheEvictions
		out.WALBytes += st.WALBytes
		out.FileBytes += st.FileBytes
		out.PagesWritten += st.PagesWritten
		out.HybridSearches += st.HybridSearches
	}
	if out.NumPartitions > 0 {
		out.AvgPartitionSize = float64(out.NumVectors-out.DeltaCount-out.Ingest.RunRows) / float64(out.NumPartitions)
	}
	return out
}

// SetZonePruning toggles per-run zone/Bloom pruning on every shard (see
// DB.SetZonePruning).
func (s *ShardedDB) SetZonePruning(enabled bool) {
	for _, sh := range s.shards {
		sh.SetZonePruning(enabled)
	}
}

// ShardStats returns each shard's stats, indexed by shard.
func (s *ShardedDB) ShardStats() ([]Stats, error) {
	per := make([]Stats, len(s.shards))
	err := s.scatter(func(i int, sh *DB, _ <-chan struct{}) error {
		var err error
		per[i], err = sh.Stats()
		return err
	})
	if err != nil {
		return nil, err
	}
	return per, nil
}

// Stats aggregates operational statistics over the shard set. The result
// cache lives at the router, not in the shards, so its stats are overlaid
// after aggregation (per-shard Stats.Cache is always zero).
func (s *ShardedDB) Stats() (Stats, error) {
	per, err := s.ShardStats()
	if err != nil {
		return Stats{}, err
	}
	out := AggregateStats(per)
	out.Cache = cacheStatsOf(s.cache)
	// Hybrid queries run at the router, never on individual shards, so the
	// per-shard sum is zero and this overlay is the whole count.
	out.HybridSearches += s.hybridSearches.Load()
	return out, nil
}

// CheckInvariants runs the whole sharded invariant battery: the manifest
// must match the directory topology, every shard must pass the single-store
// index invariants, and the id placement must be globally consistent — no
// asset id present in two shards, and every id stored on exactly the shard
// its hash designates. O(total rows); used by the crash battery and tests.
func (s *ShardedDB) CheckInvariants() error {
	if !s.ephemeral() {
		m, ok, err := storage.ReadManifest(s.dir)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("micronn: sharded invariant: manifest missing from %s", s.dir)
		}
		if m != s.manifest {
			return fmt.Errorf("micronn: sharded invariant: manifest %+v changed since open (%+v)", m, s.manifest)
		}
		if err := storage.ValidateManifestDir(s.dir, m); err != nil {
			return fmt.Errorf("micronn: sharded invariant: %w", err)
		}
	}
	seen := make(map[string]int)
	for i, sh := range s.shards {
		err := sh.store.View(func(rt *storage.ReadTxn) error {
			if err := sh.ix.CheckInvariants(rt); err != nil {
				return fmt.Errorf("micronn: shard %d: %w", i, err)
			}
			return sh.ix.ForEachAsset(rt, func(asset string) error {
				if j, dup := seen[asset]; dup {
					return fmt.Errorf("micronn: sharded invariant: asset %q present in shards %d and %d", asset, j, i)
				}
				seen[asset] = i
				if want := s.shardOf(asset); want != i {
					return fmt.Errorf("micronn: sharded invariant: asset %q stored in shard %d but hashes to shard %d", asset, i, want)
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
