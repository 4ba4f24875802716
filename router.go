package micronn

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"micronn/internal/ivf"
	"micronn/internal/rescache"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// router is the one query pipeline. It owns a shard list and the result
// cache: a DB is a router over itself (one shard), a ShardedDB a router
// over its N shards. Every query kind — Search, BatchSearch, HybridSearch —
// is written once as a per-shard scan plus a merge of the per-shard
// outputs, and one function (run) executes it for live and snapshot reads,
// with and without the cache.
//
// With one shard the scan runs inline and asks ivf for final results, so
// the single-store scan and rerank run exactly as ivf implements them and
// the merge is a cut to K. With N shards the scans run in parallel, spread
// the NProbe budget over the shards, and return approximate candidates on
// quantized stores (ivf CandidatesOnly); the merge pools them, cuts the
// pool to the single-store rerank budget and reranks each survivor on its
// owning shard, so recall matches a single store.
type router struct {
	shards []*DB
	// seed keys the id hash that routes point operations (see shardIndex).
	seed uint64

	// cache is the generation-versioned result cache (nil when disabled).
	// Entries record one data generation per shard; on a multi-shard
	// router they also keep the per-shard scan outputs, so a lookup whose
	// generations partially match re-scans only the shards that moved.
	cache *rescache.Cache

	// hybridSearches counts HybridSearch calls through this router
	// (surfaced via Stats).
	hybridSearches atomic.Uint64
}

// shardOf routes an id to its shard.
func (r *router) shardOf(id string) int {
	return shardIndex(r.seed, id, len(r.shards))
}

// scatter runs fn once per shard and returns the first error. One shard
// runs inline. Several run concurrently, and the first shard to fail
// closes the shared cancel channel, so still-running sibling scans abandon
// their remaining partitions instead of completing work whose result the
// gather will discard. Scans forward cancel into their SearchOptions/
// BatchOptions; a sibling reaped this way reports ivf.ErrCanceled, which
// is an echo of the original failure, never the returned error.
func (r *router) scatter(fn func(i int, sh *DB, cancel <-chan struct{}) error) error {
	if len(r.shards) == 1 {
		return fn(0, r.shards[0], nil)
	}
	cancel := make(chan struct{})
	var once sync.Once
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh *DB) {
			defer wg.Done()
			err := fn(i, sh, cancel)
			errs[i] = err
			if err != nil && !errors.Is(err, ivf.ErrCanceled) {
				once.Do(func() { close(cancel) })
			}
		}(i, sh)
	}
	wg.Wait()
	var echo error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ivf.ErrCanceled) {
			return err
		}
		echo = err
	}
	return echo
}

// beginReads opens one read transaction per shard. Each pins its own
// shard's commit horizon: consistent per shard, while a cross-shard write
// racing the call may be visible on one shard and not another.
func (r *router) beginReads() ([]*storage.ReadTxn, error) {
	rts := make([]*storage.ReadTxn, len(r.shards))
	for i, sh := range r.shards {
		rt, err := sh.store.BeginRead()
		if err != nil {
			closeReads(rts[:i])
			return nil, err
		}
		rts[i] = rt
	}
	return rts, nil
}

func closeReads(rts []*storage.ReadTxn) {
	for _, rt := range rts {
		if rt != nil {
			rt.Close()
		}
	}
}

// readGens reads each shard's data generation at its pinned snapshot.
func (r *router) readGens(rts []*storage.ReadTxn) ([]int64, error) {
	gens := make([]int64, len(r.shards))
	for i, sh := range r.shards {
		g, err := sh.ix.DataGeneration(rts[i])
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// --- running a query ---

// query is one query kind bound to its normalized request.
type query[O, R any] struct {
	// scan runs the request on one shard at its pinned snapshot; merge
	// combines the per-shard outputs into the response. merge must not
	// mutate outs: cached outputs flow through it on every partial reuse.
	scan  func(sh *DB, rt *storage.ReadTxn, cancel <-chan struct{}) (O, error)
	merge func(rts []*storage.ReadTxn, outs []O) (R, error)

	// The cache protocol: noCache bypasses the cache; key fingerprints the
	// normalized request; clone copies a shared cached response before it
	// is handed out; size and outSize feed the byte budget; filterHeavy
	// and empty classify a response for admission.
	noCache     bool
	key         func() rescache.Key
	clone       func(R) R
	size        func(R) int64
	outSize     func(O) int64
	filterHeavy bool
	empty       func(R) bool
}

// cacheEntry is the cached form of one query: the merged response served
// verbatim on a full generation match, plus (multi-shard routers only) the
// per-shard outputs reused for the shards whose generation did not move.
type cacheEntry[O, R any] struct {
	outs []O
	resp R
}

// flightResult carries a singleflight computation's response together with
// the generations its snapshot observed, so joiners can revalidate.
type flightResult[R any] struct {
	resp R
	gens []int64
}

// run executes q. snap, when non-nil, holds a Snapshot's pinned read
// transactions; otherwise run pins fresh ones for the call. Snapshot reads
// bypass the cache: an entry stamped with an old horizon's generations
// would displace the entries live traffic needs. Live cached reads follow
// one protocol:
//
//  1. Fast path: a counted lookup at the pinned generations serves a valid
//     entry without entering the flight (concurrent hits never serialize).
//  2. Miss or stale: concurrent identical queries coalesce in a
//     singleflight. The leader re-validates (another flight may have just
//     filled the entry), re-scans only the shards whose generation moved,
//     merges, and stores the response stamped with the generations it was
//     computed at — never newer ones.
//  3. A caller that merely JOINED a flight serves the shared response only
//     when the flight's generations equal the ones the caller read from
//     its OWN pinned transactions; otherwise it recomputes there. A flight
//     started before the caller's own write committed must not answer for
//     it, so read-your-writes survives coalescing.
func run[O, R any](r *router, snap []*storage.ReadTxn, q *query[O, R]) (R, error) {
	var zero R
	rts := snap
	if rts == nil {
		var err error
		if rts, err = r.beginReads(); err != nil {
			return zero, err
		}
		defer closeReads(rts)
	}
	if snap != nil || r.cache == nil || q.noCache {
		outs, err := scanShards(r, rts, q, nil)
		if err != nil {
			return zero, err
		}
		return q.merge(rts, outs)
	}
	key := q.key()
	gens, err := r.readGens(rts)
	if err != nil {
		return zero, err
	}
	if v, _, out := r.cache.Get(key, gens); out == rescache.Hit {
		return q.clone(v.(*cacheEntry[O, R]).resp), nil
	}
	v, shared, err := r.cache.Do(key, func() (any, error) {
		resp, err := fill(r, rts, q, key, gens)
		if err != nil {
			return nil, err
		}
		return flightResult[R]{resp: resp, gens: gens}, nil
	})
	if err != nil {
		return zero, err
	}
	fr := v.(flightResult[R])
	if shared && !rescache.GensEqual(fr.gens, gens) {
		resp, err := fill(r, rts, q, key, gens)
		if err != nil {
			return zero, err
		}
		return q.clone(resp), nil
	}
	return q.clone(fr.resp), nil
}

// fill validates, serves or recomputes q at rts, whose per-shard data
// generations the caller read as gens, and caches the result. It returns
// the shared (cached) response; callers clone before handing it out.
func fill[O, R any](r *router, rts []*storage.ReadTxn, q *query[O, R], key rescache.Key, gens []int64) (R, error) {
	var zero R
	v, stored, out := r.cache.Lookup(key, gens)
	if out == rescache.Hit {
		return v.(*cacheEntry[O, R]).resp, nil
	}
	var reuse []*O
	if out == rescache.Stale {
		reuse = reusableOuts(v.(*cacheEntry[O, R]).outs, stored, gens, r.cache)
	}
	outs, err := scanShards(r, rts, q, reuse)
	if err != nil {
		return zero, err
	}
	resp, err := q.merge(rts, outs)
	if err != nil {
		return zero, err
	}
	entry := &cacheEntry[O, R]{resp: resp}
	size := q.size(resp)
	if len(r.shards) > 1 {
		// A one-shard entry is all or nothing; only a multi-shard router
		// can reuse per-shard outputs.
		entry.outs = outs
		for _, o := range outs {
			size += 96 + q.outSize(o)
		}
	}
	r.cache.PutWithPolicy(key, gens, entry, size, rescache.PutPolicy{
		FilterHeavy: q.filterHeavy,
		Negative:    q.empty(resp),
	})
	return resp, nil
}

// scanShards runs q's scan on every shard at its pinned snapshot. reuse,
// when non-nil, supplies cached outputs for the shards whose data
// generation has not moved; those shards are not scanned.
func scanShards[O, R any](r *router, rts []*storage.ReadTxn, q *query[O, R], reuse []*O) ([]O, error) {
	outs := make([]O, len(r.shards))
	err := r.scatter(func(i int, sh *DB, cancel <-chan struct{}) error {
		if reuse != nil && reuse[i] != nil {
			outs[i] = *reuse[i]
			return nil
		}
		var err error
		outs[i], err = q.scan(sh, rts[i], cancel)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// reusableOuts maps a stale entry's per-shard outputs onto the current
// generations: position i is reusable iff shard i's generation did not
// move. Returns nil when nothing is reusable (or the shapes disagree, as
// for a one-shard entry, which keeps no outputs).
func reusableOuts[T any](outs []T, stored, gens []int64, c *rescache.Cache) []*T {
	if len(stored) != len(gens) || len(outs) != len(gens) {
		return nil
	}
	reuse := make([]*T, len(gens))
	skipped := 0
	for i := range gens {
		if stored[i] == gens[i] {
			reuse[i] = &outs[i]
			skipped++
		}
	}
	if skipped == 0 {
		return nil
	}
	c.NoteSkipped(skipped)
	return reuse
}

// --- merging candidates ---

// shardCand tags a per-shard candidate with its source shard: vector ids
// are only unique within a shard, so the merge orders ties by (distance,
// shard, vid) to stay deterministic.
type shardCand struct {
	topk.Result
	shard int
}

func sortShardCands(cs []shardCand) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Distance != cs[j].Distance {
			return cs[i].Distance < cs[j].Distance
		}
		if cs[i].shard != cs[j].shard {
			return cs[i].shard < cs[j].shard
		}
		return cs[i].VectorID < cs[j].VectorID
	})
}

// perShardProbe spreads the query's probe budget across the shards: each
// shard holds ~1/N of the data in proportionally fewer partitions, so
// probing ceil(NProbe/N) per shard scans about the same number of vectors
// as a single store probing NProbe. nprobe is normalized (0 only for Exact
// queries, which probe every partition).
func (r *router) perShardProbe(nprobe int) int {
	return (nprobe + len(r.shards) - 1) / len(r.shards)
}

// mergeCands merges per-shard candidate lists query by query into the
// final top-K lists: per[i][qi] is shard i's list for query qi, and
// approx[i] marks shard i's lists as approximate candidates that owe the
// exact rerank. Approximate pools are cut to the single-store rerank budget
// and reranked on their owning shards; exact lists (float32 scans,
// pre-filter plans, Exact queries, every one-shard scan) contribute
// directly. It returns the reranked count and bytes read, and never
// mutates per.
func (r *router) mergeCands(rts []*storage.ReadTxn, queryVec func(qi int) []float32, k, rerank int, per [][][]topk.Result, approx []bool) (out [][]Result, reranked, bytesRead int64, err error) {
	nq := len(per[0])
	out = make([][]Result, nq)
	if len(per) == 1 && !approx[0] {
		// One final list, already in (distance, vid) order: a cut to K.
		for qi, rs := range per[0] {
			out[qi] = make([]Result, min(len(rs), k))
			for i := range out[qi] {
				out[qi][i] = Result{ID: rs[i].AssetID, Distance: rs[i].Distance}
			}
		}
		return out, 0, 0, nil
	}
	merged := make([][]shardCand, nq)
	groups := make([]map[int][]topk.Result, len(r.shards))
	anyApprox := false
	for qi := range merged {
		var pool []shardCand
		for i := range per {
			for _, c := range per[i][qi] {
				if approx[i] {
					pool = append(pool, shardCand{Result: c, shard: i})
				} else {
					merged[qi] = append(merged[qi], shardCand{Result: c, shard: i})
				}
			}
		}
		if len(pool) == 0 {
			continue
		}
		anyApprox = true
		sortShardCands(pool)
		// Normalization resolved rerank to the store's factor; ivf treats
		// a factor below 1 as 1.
		if budget := k * max(rerank, 1); len(pool) > budget {
			pool = pool[:budget]
		}
		for _, c := range pool {
			if groups[c.shard] == nil {
				groups[c.shard] = make(map[int][]topk.Result)
			}
			groups[c.shard][qi] = append(groups[c.shard][qi], c.Result)
		}
	}

	if anyApprox {
		rerankedBy := make([]map[int][]topk.Result, len(r.shards))
		var mu sync.Mutex
		err := r.scatter(func(i int, sh *DB, _ <-chan struct{}) error {
			if len(groups[i]) == 0 {
				return nil
			}
			byQuery := make(map[int][]topk.Result, len(groups[i]))
			var n, rb int64
			for qi, cands := range groups[i] {
				res, b, err := sh.ix.RerankCandidates(rts[i], queryVec(qi), cands, len(cands))
				if err != nil {
					return err
				}
				n += int64(len(cands))
				rb += b
				byQuery[qi] = res
			}
			mu.Lock()
			reranked += n
			bytesRead += rb
			mu.Unlock()
			rerankedBy[i] = byQuery
			return nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
		for i, byQuery := range rerankedBy {
			for qi, res := range byQuery {
				for _, c := range res {
					merged[qi] = append(merged[qi], shardCand{Result: c, shard: i})
				}
			}
		}
	}

	for qi, pool := range merged {
		sortShardCands(pool)
		out[qi] = make([]Result, min(len(pool), k))
		for i := range out[qi] {
			out[qi][i] = Result{ID: pool[i].AssetID, Distance: pool[i].Distance}
		}
	}
	return out, reranked, bytesRead, nil
}

// --- Search ---

// shardOut is one shard's Search output: its candidate list (final, or
// approximate when info.CandidatesApprox) and its execution info.
type shardOut struct {
	res  []topk.Result
	info *ivf.PlanInfo
}

func (r *router) search(snap []*storage.ReadTxn, req SearchRequest) (*SearchResponse, error) {
	if err := r.normalizeSearch(&req); err != nil {
		return nil, err
	}
	return run(r, snap, &query[shardOut, *SearchResponse]{
		scan: r.searchScan(req),
		merge: func(rts []*storage.ReadTxn, outs []shardOut) (*SearchResponse, error) {
			return r.searchMerge(rts, req, outs)
		},

		noCache:     req.NoCache,
		key:         func() rescache.Key { return rescache.KeyOf(vectorLegKey(rescache.KindSearch, req)) },
		clone:       cloneSearchResponse,
		size:        searchResponseSize,
		outSize:     func(o shardOut) int64 { return candsSize(o.res) },
		filterHeavy: len(req.Filters) >= filterHeavyFilters,
		empty:       func(resp *SearchResponse) bool { return len(resp.Results) == 0 },
	})
}

// searchScan is Search's per-shard scan. Only a multi-shard router asks
// for approximate candidates; one shard returns ivf's final results.
func (r *router) searchScan(req SearchRequest) func(*DB, *storage.ReadTxn, <-chan struct{}) (shardOut, error) {
	opts := ivf.SearchOptions{
		K: req.K, NProbe: r.perShardProbe(req.NProbe), Filters: req.Filters,
		Exact: req.Exact, Plan: req.Plan, RerankFactor: req.RerankFactor,
		CandidatesOnly: len(r.shards) > 1,
	}
	return func(sh *DB, rt *storage.ReadTxn, cancel <-chan struct{}) (shardOut, error) {
		o := opts
		o.Cancel = cancel
		res, info, err := sh.ix.Search(rt, req.Vector, o)
		return shardOut{res: res, info: info}, err
	}
}

// searchMerge is Search's merge: plan counters sum over the shards and the
// candidate lists merge through mergeCands.
func (r *router) searchMerge(rts []*storage.ReadTxn, req SearchRequest, outs []shardOut) (*SearchResponse, error) {
	agg := *outs[0].info
	agg.CandidatesApprox = false
	per := make([][][]topk.Result, len(outs))
	approx := make([]bool, len(outs))
	for i, o := range outs {
		if i > 0 {
			agg.PartitionsScanned += o.info.PartitionsScanned
			agg.VectorsScanned += o.info.VectorsScanned
			agg.RowsFiltered += o.info.RowsFiltered
			agg.BytesScanned += o.info.BytesScanned
			agg.Reranked += o.info.Reranked
		}
		per[i] = [][]topk.Result{o.res}
		approx[i] = o.info.CandidatesApprox
	}
	out, reranked, rb, err := r.mergeCands(rts, func(int) []float32 { return req.Vector }, req.K, req.RerankFactor, per, approx)
	if err != nil {
		return nil, err
	}
	agg.Reranked += int(reranked)
	agg.BytesScanned += rb
	return &SearchResponse{Results: out[0], Plan: agg}, nil
}

// vectorLegKey is the cache fingerprint of a normalized single-vector
// request. Normalization already zeroed the knobs the request's path does
// not read; the plan override is zeroed here for filterless queries, which
// have no pre/post-filter choice.
func vectorLegKey(kind byte, req SearchRequest) rescache.Request {
	plan := req.Plan
	if len(req.Filters) == 0 {
		plan = 0
	}
	return rescache.Request{
		Kind:         kind,
		K:            req.K,
		NProbe:       req.NProbe,
		RerankFactor: req.RerankFactor,
		Plan:         int(plan),
		Exact:        req.Exact,
		Vectors:      [][]float32{req.Vector},
		Filters:      req.Filters,
	}
}

// cloneSearchResponse copies a cached response before handing it to a
// caller: cached values are shared, and callers own what they receive.
func cloneSearchResponse(r *SearchResponse) *SearchResponse {
	return &SearchResponse{Results: append([]Result(nil), r.Results...), Plan: r.Plan}
}

// searchResponseSize estimates a response's memory footprint for the
// cache's byte budget.
func searchResponseSize(r *SearchResponse) int64 {
	n := int64(96)
	for _, res := range r.Results {
		n += 24 + int64(len(res.ID))
	}
	return n
}

// candsSize estimates the footprint of one candidate slice.
func candsSize(rs []topk.Result) int64 {
	n := int64(24)
	for _, r := range rs {
		n += 40 + int64(len(r.AssetID))
	}
	return n
}

// --- BatchSearch ---

// batchShardOut is one shard's BatchSearch output: per-query candidate
// lists plus execution info.
type batchShardOut struct {
	res  [][]topk.Result
	info *ivf.BatchInfo
}

func (r *router) batchSearch(snap []*storage.ReadTxn, req BatchSearchRequest) (*BatchSearchResponse, error) {
	if err := r.normalizeBatch(&req); err != nil {
		return nil, err
	}
	if len(req.Vectors) == 0 {
		return &BatchSearchResponse{}, nil
	}
	queries := vec.NewMatrix(len(req.Vectors), r.shards[0].Dim())
	for i, q := range req.Vectors {
		queries.SetRow(i, q)
	}
	opts := ivf.BatchOptions{
		K: req.K, NProbe: r.perShardProbe(req.NProbe),
		RerankFactor: req.RerankFactor, CandidatesOnly: len(r.shards) > 1,
	}
	return run(r, snap, &query[batchShardOut, *BatchSearchResponse]{
		scan: func(sh *DB, rt *storage.ReadTxn, cancel <-chan struct{}) (batchShardOut, error) {
			o := opts
			o.Cancel = cancel
			res, info, err := sh.ix.BatchSearch(rt, queries, o)
			return batchShardOut{res: res, info: info}, err
		},
		merge: func(rts []*storage.ReadTxn, outs []batchShardOut) (*BatchSearchResponse, error) {
			return r.batchMerge(rts, req, queries, outs)
		},

		noCache: req.NoCache,
		key: func() rescache.Key {
			// Vector order is preserved: results are positional.
			return rescache.KeyOf(rescache.Request{
				Kind: rescache.KindBatch, K: req.K, NProbe: req.NProbe,
				RerankFactor: req.RerankFactor, Vectors: req.Vectors,
			})
		},
		clone: cloneBatchSearchResponse,
		size:  batchSearchResponseSize,
		outSize: func(o batchShardOut) int64 {
			var n int64
			for _, rs := range o.res {
				n += candsSize(rs)
			}
			return n
		},
		empty: func(resp *BatchSearchResponse) bool {
			for _, rs := range resp.Results {
				if len(rs) > 0 {
					return false
				}
			}
			return true
		},
	})
}

// batchMerge is BatchSearch's merge: execution counters sum over the
// shards and each query's candidate lists merge through mergeCands.
func (r *router) batchMerge(rts []*storage.ReadTxn, req BatchSearchRequest, queries *vec.Matrix, outs []batchShardOut) (*BatchSearchResponse, error) {
	agg := *outs[0].info
	agg.CandidatesApprox = false
	per := make([][][]topk.Result, len(outs))
	approx := make([]bool, len(outs))
	for i, o := range outs {
		if i > 0 {
			agg.PartitionScans += o.info.PartitionScans
			agg.QueryPartitionPairs += o.info.QueryPartitionPairs
			agg.VectorsScanned += o.info.VectorsScanned
			agg.DistancePairs += o.info.DistancePairs
			agg.BytesScanned += o.info.BytesScanned
			agg.Reranked += o.info.Reranked
		}
		per[i] = o.res
		approx[i] = o.info.CandidatesApprox
	}
	out, reranked, rb, err := r.mergeCands(rts, queries.Row, req.K, req.RerankFactor, per, approx)
	if err != nil {
		return nil, err
	}
	agg.Reranked += reranked
	agg.BytesScanned += rb
	return &BatchSearchResponse{Results: out, Info: agg}, nil
}

func cloneBatchSearchResponse(r *BatchSearchResponse) *BatchSearchResponse {
	out := &BatchSearchResponse{Results: make([][]Result, len(r.Results)), Info: r.Info}
	for i, rs := range r.Results {
		out.Results[i] = append([]Result(nil), rs...)
	}
	return out
}

func batchSearchResponseSize(r *BatchSearchResponse) int64 {
	n := int64(96)
	for _, rs := range r.Results {
		n += 24
		for _, res := range rs {
			n += 24 + int64(len(res.ID))
		}
	}
	return n
}
