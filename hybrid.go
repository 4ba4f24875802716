package micronn

import (
	"math"
	"sort"

	"micronn/internal/fts"
	"micronn/internal/ivf"
	"micronn/internal/rescache"
	"micronn/internal/storage"
	"micronn/internal/token"
)

// This file is the hybrid (lexical + vector) query subsystem: one request
// runs a BM25-scored full-text leg and the usual ANN vector leg under a
// single read snapshot and fuses the two rankings. See the package
// documentation's "Hybrid search" section for the semantics.

// defaultFusionK is the reciprocal-rank fusion constant (the conventional
// RRF k=60).
const defaultFusionK = 60

// HybridRequest parameterizes HybridSearch. The vector-leg fields (Vector,
// K, NProbe, Filters, Exact, Plan, RerankFactor, NoCache) follow
// SearchRequest exactly; the remaining fields drive the lexical leg and the
// fusion step.
type HybridRequest struct {
	// Vector is the query embedding (required).
	Vector []float32
	// Text is the lexical query, tokenized and BM25-scored against TextCol's
	// full-text index. Empty Text degrades the request to a pure vector
	// query whose results are identical to Search.
	Text string
	// TextCol names the FullText attribute the lexical leg runs over.
	// Defaults to the store's sole full-text attribute; required when the
	// store indexes several.
	TextCol string
	// K is the fused result count (default 10). Each leg also retrieves K
	// candidates before fusion.
	K int
	// NProbe is the vector leg's IVF probe count (default 8).
	NProbe int
	// Filters is the conjunctive attribute filter set applied to the vector
	// leg (optional). The lexical leg is unfiltered: it ranks by text alone.
	Filters []Filter
	// Exact forces an exhaustive vector leg.
	Exact bool
	// Plan overrides the vector leg's hybrid-filter optimizer.
	Plan PlanType
	// RerankFactor overrides the quantized rerank multiplier.
	RerankFactor int
	// FusionK is the reciprocal-rank fusion constant (default 60). Larger
	// values flatten the rank discount, weighting deep results more evenly.
	FusionK int
	// Weighted switches from reciprocal-rank fusion to weighted score
	// fusion: VectorWeight·(1/(1+distance)) + TextWeight·(BM25/maxBM25).
	// Setting one weight to zero yields a single-leg ranking, which the
	// bench harness uses to measure lexical-only recall.
	Weighted bool
	// VectorWeight and TextWeight are the weighted-mode leg weights
	// (default 0.5 each when Weighted and both are zero).
	VectorWeight float64
	TextWeight   float64
	// NoCache bypasses the result cache for this query.
	NoCache bool
}

// vectorRequest projects the request's vector leg onto a SearchRequest.
func (r HybridRequest) vectorRequest() SearchRequest {
	return SearchRequest{
		Vector: r.Vector, K: r.K, NProbe: r.NProbe, Filters: r.Filters,
		Exact: r.Exact, Plan: r.Plan, RerankFactor: r.RerankFactor,
		NoCache: r.NoCache,
	}
}

// HybridResult is one fused result.
type HybridResult struct {
	// ID is the asset id.
	ID string
	// Score is the fused score (higher is better): the RRF sum by default,
	// the weighted combination under HybridRequest.Weighted.
	Score float64
	// Distance is the exact (full-precision) vector distance to the query,
	// computed via the raw-vector path on quantized stores — present for
	// every result, including ones only the lexical leg surfaced.
	Distance float32
	// TextScore is the BM25 score (0 when the lexical leg did not rank it).
	TextScore float64
	// VectorRank and TextRank are the result's 1-based ranks within each
	// leg; 0 means the leg did not retrieve it.
	VectorRank int
	TextRank   int
}

// HybridResponse carries fused results plus the vector leg's execution
// details.
type HybridResponse struct {
	Results []HybridResult
	// Plan describes the vector leg (the lexical leg has no plan choice).
	Plan PlanInfo
}

// hybridFromSearch wraps a pure vector response (empty Text) so HybridSearch
// with no lexical query returns results byte-identical to Search, scored as
// a single-leg RRF list.
func hybridFromSearch(resp *SearchResponse) *HybridResponse {
	out := make([]HybridResult, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = HybridResult{
			ID:         r.ID,
			Score:      1 / float64(defaultFusionK+i+1),
			Distance:   r.Distance,
			VectorRank: i + 1,
		}
	}
	return &HybridResponse{Results: out, Plan: resp.Plan}
}

// fuseHybrid combines the two leg rankings into the final top-K. Both input
// lists are globally ordered (the sharded router merges before fusing), so
// ranks — and therefore fused scores — are identical for sharded and
// single-store executions over the same corpus. Ties break on ascending
// asset id, a total order, keeping the output deterministic.
func fuseHybrid(req HybridRequest, vec []Result, lex []ivf.LexicalDoc) []HybridResult {
	idx := make(map[string]int, len(vec)+len(lex))
	cands := make([]HybridResult, 0, len(vec)+len(lex))
	for i, r := range vec {
		idx[r.ID] = len(cands)
		cands = append(cands, HybridResult{ID: r.ID, Distance: r.Distance, VectorRank: i + 1})
	}
	var maxText float64
	for i, d := range lex {
		if d.Score > maxText {
			maxText = d.Score
		}
		if j, ok := idx[d.AssetID]; ok {
			cands[j].TextRank = i + 1
			cands[j].TextScore = d.Score
			continue
		}
		idx[d.AssetID] = len(cands)
		cands = append(cands, HybridResult{
			ID: d.AssetID, Distance: d.Distance, TextScore: d.Score, TextRank: i + 1,
		})
	}
	for i := range cands {
		c := &cands[i]
		if req.Weighted {
			vs := 1 / (1 + math.Max(float64(c.Distance), 0))
			var ts float64
			if c.TextRank > 0 && maxText > 0 {
				ts = c.TextScore / maxText
			}
			c.Score = req.VectorWeight*vs + req.TextWeight*ts
			continue
		}
		if c.VectorRank > 0 {
			c.Score += 1 / float64(req.FusionK+c.VectorRank)
		}
		if c.TextRank > 0 {
			c.Score += 1 / float64(req.FusionK+c.TextRank)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].ID < cands[j].ID
	})
	if len(cands) > req.K {
		cands = cands[:req.K]
	}
	return cands
}

// HybridSearch runs a fused lexical + vector query (see the package doc's
// "Hybrid search" section). With empty Text it is equivalent to Search.
func (db *DB) HybridSearch(req HybridRequest) (*HybridResponse, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	return db.hybridSearch(nil, req)
}

// HybridSearch runs a fused query across the shard set (same semantics as
// DB.HybridSearch). BM25 statistics are aggregated across the shards before
// any shard scores, so the fused ranking is identical to a single store
// holding the same corpus.
func (s *ShardedDB) HybridSearch(req HybridRequest) (*HybridResponse, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return s.hybridSearch(nil, req)
}

// HybridSearch runs a fused query against the pinned state.
func (s *Snapshot) HybridSearch(req HybridRequest) (*HybridResponse, error) {
	return s.r.hybridSearch(s.rts, req)
}

// hybridShardOut is one shard's HybridSearch output: its vector-leg scan
// and its local BM25 statistics for the query tokens.
type hybridShardOut struct {
	vec   shardOut
	stats fts.BM25Stats
}

// hybridSearch runs a fused query through the router. Empty Text runs the
// Search kind (same results and cache entries as Search). Otherwise the
// per-shard scan runs the vector leg and collects the shard's local
// df/N/length statistics; the merge merges the vector leg, sums the
// statistics into the global corpus view, has every shard BM25-score its
// own postings with the global figures, merges those lists and fuses the
// two legs. Scoring with global figures makes per-shard scores — not just
// ranks — comparable, so the fused ranking equals a single store's.
func (r *router) hybridSearch(snap []*storage.ReadTxn, req HybridRequest) (*HybridResponse, error) {
	if err := r.normalizeHybrid(&req); err != nil {
		return nil, err
	}
	r.hybridSearches.Add(1)
	vreq := req.vectorRequest()
	if req.Text == "" {
		resp, err := r.search(snap, vreq)
		if err != nil {
			return nil, err
		}
		return hybridFromSearch(resp), nil
	}
	toks := token.Unique(req.Text)
	vscan := r.searchScan(vreq)
	return run(r, snap, &query[hybridShardOut, *HybridResponse]{
		scan: func(sh *DB, rt *storage.ReadTxn, cancel <-chan struct{}) (hybridShardOut, error) {
			vo, err := vscan(sh, rt, cancel)
			if err != nil {
				return hybridShardOut{}, err
			}
			st, err := sh.ix.LexicalStats(rt, req.TextCol, toks)
			return hybridShardOut{vec: vo, stats: st}, err
		},
		merge: func(rts []*storage.ReadTxn, outs []hybridShardOut) (*HybridResponse, error) {
			vouts := make([]shardOut, len(outs))
			var global fts.BM25Stats
			for i, o := range outs {
				vouts[i] = o.vec
				global.Merge(o.stats)
			}
			vecResp, err := r.searchMerge(rts, vreq, vouts)
			if err != nil {
				return nil, err
			}
			perLex := make([][]ivf.LexicalDoc, len(outs))
			err = r.scatter(func(i int, sh *DB, _ <-chan struct{}) error {
				var lerr error
				perLex[i], lerr = sh.ix.LexicalSearch(rts[i], req.TextCol, req.Vector, toks, global, req.K)
				return lerr
			})
			if err != nil {
				return nil, err
			}
			return &HybridResponse{
				Results: fuseHybrid(req, vecResp.Results, mergeLexical(perLex, req.K)),
				Plan:    vecResp.Plan,
			}, nil
		},

		noCache: req.NoCache,
		key: func() rescache.Key {
			// The vector leg fingerprints like Search; the lexical and
			// fusion parameters join it (rescache tokenizes Text, so
			// queries equal after tokenization share one entry).
			k := vectorLegKey(rescache.KindHybrid, vreq)
			k.Text, k.TextCol, k.FusionK = req.Text, req.TextCol, req.FusionK
			k.Weighted, k.VectorWeight, k.TextWeight = req.Weighted, req.VectorWeight, req.TextWeight
			return rescache.KeyOf(k)
		},
		clone: func(r *HybridResponse) *HybridResponse {
			return &HybridResponse{Results: append([]HybridResult(nil), r.Results...), Plan: r.Plan}
		},
		size: func(r *HybridResponse) int64 {
			n := int64(96)
			for _, res := range r.Results {
				n += 64 + int64(len(res.ID))
			}
			return n
		},
		outSize: func(o hybridShardOut) int64 {
			n := candsSize(o.vec.res)
			for tok := range o.stats.DocFreq {
				n += 24 + int64(len(tok))
			}
			return n
		},
		filterHeavy: len(req.Filters) >= filterHeavyFilters,
		empty:       func(resp *HybridResponse) bool { return len(resp.Results) == 0 },
	})
}

// mergeLexical merges per-shard BM25 top-K lists into the global top-K,
// ordered by (score desc, asset id asc) — the same total order every shard
// (and a single store) cuts by, so the merged list equals a single store's.
// A single list is already in that order.
func mergeLexical(per [][]ivf.LexicalDoc, k int) []ivf.LexicalDoc {
	if len(per) == 1 {
		return per[0]
	}
	var all []ivf.LexicalDoc
	for _, docs := range per {
		all = append(all, docs...)
	}
	// Asset ids are globally unique, so this is a total order; vids are
	// not comparable across topologies and must not be used here.
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].AssetID < all[j].AssetID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
