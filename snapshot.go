package micronn

import (
	"micronn/internal/storage"
)

// Snapshot is a read-only view pinned to one commit horizon per shard (a
// single store has one shard). Every query through a Snapshot observes
// exactly the same state, regardless of concurrent writes, flushes or
// rebuilds — the paper's §2.1 consistency requirement ("each reader should
// see a consistent state of the index at all times, including reading
// concurrently with writes and index maintenance operations"). On a
// sharded database the horizons are captured shard by shard, so a
// cross-shard write racing Snapshot may be visible on one shard and not
// another (per-shard consistency, as documented on ShardedDB).
//
// Snapshot reads bypass the result cache: they answer from their own
// horizon and never store entries stamped with it.
//
// Snapshots hold WAL segments alive and can delay checkpoints, so close
// them promptly. A Snapshot is safe for concurrent use.
type Snapshot struct {
	r   *router
	rts []*storage.ReadTxn
}

// Snapshot opens a consistent read view. Callers must Close it.
func (db *DB) Snapshot() (*Snapshot, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	return db.snapshot()
}

// Snapshot opens a read view across all shards. Callers must Close it.
func (s *ShardedDB) Snapshot() (*Snapshot, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return s.snapshot()
}

func (r *router) snapshot() (*Snapshot, error) {
	rts, err := r.beginReads()
	if err != nil {
		return nil, err
	}
	return &Snapshot{r: r, rts: rts}, nil
}

// Close releases the snapshot. Idempotent.
func (s *Snapshot) Close() {
	closeReads(s.rts)
}

// Search runs a query against the pinned state (same semantics as
// DB.Search).
func (s *Snapshot) Search(req SearchRequest) (*SearchResponse, error) {
	return s.r.search(s.rts, req)
}

// BatchSearch runs a query batch against the pinned state.
func (s *Snapshot) BatchSearch(req BatchSearchRequest) (*BatchSearchResponse, error) {
	return s.r.batchSearch(s.rts, req)
}

// Get returns the item as of its shard's pinned horizon.
func (s *Snapshot) Get(id string) (*Item, error) {
	i := s.r.shardOf(id)
	return getItem(s.r.shards[i].ix, s.rts[i], id)
}

// Stats returns index counters as of the pinned horizons.
func (s *Snapshot) Stats() (Stats, error) {
	per := make([]Stats, len(s.r.shards))
	for i, sh := range s.r.shards {
		st, err := sh.ix.Stats(s.rts[i])
		if err != nil {
			return Stats{}, err
		}
		per[i] = Stats{
			NumVectors:    st.NumVectors,
			DeltaCount:    st.DeltaCount,
			NumPartitions: st.NumPartitions,
			Ingest:        IngestStats{RunRows: st.RunRows},
		}
	}
	return AggregateStats(per), nil
}
