package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"micronn"
	"micronn/internal/btree"
	"micronn/internal/fts"
	"micronn/internal/ivf"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/token"
	"micronn/internal/topk"
)

// Span is one timed call into a layer's public function. Spans of one
// operation share Op; Parent is the index of the enclosing span (-1 for an
// operation's root).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// Tracer keeps spans in memory; they are written out when the run ends.
// A nil *Tracer records nothing, so the untraced loops pay one nil check
// per call.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	ops   int64
	on    bool // false while the traced run measures its untraced half

	samples  map[string][]float64 // per-probe values, unit in the name
	deltaMax float64              // largest sampled delta-store size
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// root opens a new operation's root span; it returns -1 when not tracing.
func (t *Tracer) root(name string) int {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.spans = append(t.spans, Span{Name: "op." + name, Start: time.Since(t.t0).Nanoseconds(), Parent: -1, Op: t.ops})
	return len(t.spans) - 1
}

// start opens a child span of parent (an index from root or start).
func (t *Tracer) start(parent int, name string) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: t.spans[parent].Op})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *Tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

func (t *Tracer) add(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// selfTimes returns each layer's self time per operation in microseconds:
// a span's duration minus the time its children cover, summed by the layer
// prefix of its name.
func (t *Tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if layer == "op" {
			continue
		}
		out[layer] += float64(s.End-s.Start-child[i]) / 1e3
	}
	if t.ops > 0 {
		for k := range out {
			out[k] /= float64(t.ops)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seqTxn hides the concrete *storage.ReadTxn from ivf.Index.Search, which
// then scans partitions one after another instead of on the worker pool.
// The count pass uses it so page accesses, and with them the pool's hit
// and miss counts, repeat exactly for the same inputs.
type seqTxn struct{ rt *storage.ReadTxn }

func (s seqTxn) Get(pageNo uint32) ([]byte, error) { return s.rt.Get(pageNo) }

var _ btree.ReadTxn = seqTxn{}

// probeSearch calls the layers below one Search as siblings of the
// operation, on the same request, against the first store.
func (r *Runner) probeSearch(op int, req micronn.SearchRequest, opDur time.Duration) {
	t := r.tr
	db := r.e.DBs[0]
	ix := db.InternalIndex()
	st := db.InternalStore()
	opts := ivf.SearchOptions{K: req.K, NProbe: req.NProbe}

	sp := t.start(op, "storage.View")
	_ = st.View(func(*storage.ReadTxn) error { return nil })
	t.add("storage.view_us", us(t.end(sp)))

	// DB.Search and ivf.Index.Search under Store.View on the same request,
	// in alternating order so neither always runs on the warmer pool.
	var res []topk.Result
	var info *ivf.PlanInfo
	ivfSearch := func() error {
		vs := t.start(op, "storage.View")
		err := st.View(func(rt *storage.ReadTxn) error {
			is := t.start(vs, "ivf.Index.Search")
			var err error
			res, info, err = ix.Search(rt, req.Vector, opts)
			t.end(is)
			return err
		})
		t.add("ivf.view_search_us", us(t.end(vs)))
		return err
	}
	dbSearch := func() error {
		ds := t.start(op, "micronn.DB.Search")
		_, err := db.Search(req)
		t.add("micronn.db_search_us", us(t.end(ds)))
		return err
	}
	first, second := ivfSearch, dbSearch
	if r.qSearch%2 == 0 {
		first, second = dbSearch, ivfSearch
	}
	if err := first(); err != nil {
		r.fail("probe search: %v", err)
		return
	}
	if err := second(); err != nil {
		r.fail("probe search: %v", err)
		return
	}
	// Kernel time the scan implies: SQ8 codes at the SQ8 rate plus the
	// exact vectors the rerank fetched at the float rate, or float vectors.
	dim := float64(ix.Config().Dim)
	if ix.Config().Quantization != micronn.QuantNone {
		t.add("kernel.code_bytes", float64(info.VectorsScanned)*dim)
		t.add("kernel.float_bytes", float64(info.Reranked)*dim*4)
	} else {
		t.add("kernel.code_bytes", 0)
		t.add("kernel.float_bytes", float64(info.VectorsScanned)*dim*4)
	}

	if len(r.e.DBs) > 1 {
		var slowest time.Duration
		for i, sh := range r.e.DBs {
			sp := t.start(op, "micronn.Shard.Search")
			if _, err := sh.Search(req); err != nil {
				r.fail("probe shard %d search: %v", i, err)
				return
			}
			slowest = max(slowest, t.end(sp))
		}
		t.add("micronn.shard_fanout_us", us(opDur-slowest))
	}

	// topk: merge the ivf answer split across two worker heaps.
	h1, h2 := topk.New(req.K), topk.New(req.K)
	for i, x := range res {
		if i%2 == 0 {
			h1.Push(x)
		} else {
			h2.Push(x)
		}
	}
	sp = t.start(op, "topk.Merge")
	topk.Merge(req.K, h1, h2)
	t.add("topk.merge_us", us(t.end(sp)))

	if ix.Config().Quantization != micronn.QuantNone {
		err := st.View(func(rt *storage.ReadTxn) error {
			cands, _, err := ix.Search(rt, req.Vector, ivf.SearchOptions{K: req.K, NProbe: req.NProbe, CandidatesOnly: true})
			if err != nil {
				return err
			}
			sp := t.start(op, "ivf.Index.RerankCandidates")
			_, _, err = ix.RerankCandidates(rt, req.Vector, cands, req.K)
			t.add("ivf.rerank_us", us(t.end(sp)))
			return err
		})
		if err != nil {
			r.fail("probe rerank: %v", err)
		}
	}

	if r.qSearch%4 == 0 {
		r.probeScan(op, ix, st, req.NProbe)
	}
}

// probeScan times the partition scan, the B+tree cursor and the row codec
// over NProbe partitions drawn from a seeded sequence.
func (r *Runner) probeScan(op int, ix *ivf.Index, st *storage.Store, n int) {
	t := r.tr
	tbl, err := ix.DB().Table("vectors")
	if err != nil {
		r.fail("probe scan: %v", err)
		return
	}
	err = st.View(func(rt *storage.ReadTxn) error {
		parts, err := ix.PartitionIDs(rt)
		if err != nil || len(parts) == 0 {
			return err
		}
		rng := rand.New(rand.NewSource(int64(r.qSearch)))
		var rows int64
		ss := t.start(op, "ivf.Index.ScanPartition")
		for j := 0; j < n; j++ {
			p := parts[rng.Intn(len(parts))]
			if err := ix.ScanPartition(rt, p, func(int64, []byte) error { rows++; return nil }); err != nil {
				return err
			}
		}
		d := t.end(ss)
		var encoded [][]byte
		if err := ix.ScanPartition(rt, parts[0], func(vid int64, blob []byte) error {
			encoded = append(encoded, reldb.EncodeRow(nil, reldb.Row{reldb.S(rowID(int(vid))), reldb.B(blob)}))
			return nil
		}); err != nil {
			return err
		}
		if rows > 0 {
			t.add("ivf.scan_ns_per_row", float64(d.Nanoseconds())/float64(rows))
		}
		rng = rand.New(rand.NewSource(int64(r.qSearch)))
		rows = 0
		bs := t.start(op, "btree.Cursor")
		for j := 0; j < n; j++ {
			p := parts[rng.Intn(len(parts))]
			if err := tbl.ScanKeys(rt, []reldb.Value{reldb.I(p)}, func(reldb.Row) error { rows++; return nil }); err != nil {
				return err
			}
		}
		d = t.end(bs)
		if rows > 0 {
			t.add("btree.cursor_ns_per_row", float64(d.Nanoseconds())/float64(rows))
		}
		if len(encoded) > 0 {
			ds := t.start(op, "reldb.DecodeRow")
			for _, b := range encoded {
				if _, err := reldb.DecodeRow(b, 2); err != nil {
					return err
				}
			}
			t.add("reldb.decode_ns_per_row", float64(t.end(ds).Nanoseconds())/float64(len(encoded)))
		}
		return nil
	})
	if err != nil {
		r.fail("probe scan: %v", err)
	}
}

// probeHybrid calls the two legs of one HybridSearch as siblings: the
// vector leg through the public Search, the lexical leg through each
// store's LexicalStats and LexicalSearch with the merged BM25 statistics.
func (r *Runner) probeHybrid(op int, req micronn.HybridRequest, opDur time.Duration) {
	t := r.tr
	sp := t.start(op, "micronn.Search")
	if _, err := r.e.Store.Search(micronn.SearchRequest{Vector: req.Vector, K: req.K, NProbe: req.NProbe}); err != nil {
		r.fail("probe vector leg: %v", err)
		return
	}
	vecDur := t.end(sp)
	toks := token.Unique(req.Text)
	var global fts.BM25Stats
	var statsMax, searchMax, lexTotal time.Duration
	for _, db := range r.e.DBs {
		ix := db.InternalIndex()
		col := ix.FullTextColumns()[0]
		err := db.InternalStore().View(func(rt *storage.ReadTxn) error {
			sp := t.start(op, "ivf.Index.LexicalStats")
			gs, err := ix.LexicalStats(rt, col, toks)
			d := t.end(sp)
			statsMax, lexTotal = max(statsMax, d), lexTotal+d
			global.Merge(gs)
			return err
		})
		if err != nil {
			r.fail("probe lexical stats: %v", err)
			return
		}
	}
	var docs float64
	for _, n := range global.DocFreq {
		docs += float64(n)
	}
	for _, db := range r.e.DBs {
		ix := db.InternalIndex()
		col := ix.FullTextColumns()[0]
		err := db.InternalStore().View(func(rt *storage.ReadTxn) error {
			sp := t.start(op, "ivf.Index.LexicalSearch")
			_, err := ix.LexicalSearch(rt, col, req.Vector, toks, global, req.K)
			d := t.end(sp)
			searchMax, lexTotal = max(searchMax, d), lexTotal+d
			return err
		})
		if err != nil {
			r.fail("probe lexical search: %v", err)
			return
		}
	}
	t.add("ivf.lexical_us", us(lexTotal))
	t.add("ivf.lexical_docs_per_query", docs)
	t.add("micronn.hybrid_fusion_us", us(opDur-vecDur-statsMax-searchMax))
}

// writeTick samples the delta-store size every 50 writes of a traced run.
func (r *Runner) writeTick() {
	if r.tr == nil || !r.tr.on {
		return
	}
	r.tracedWrites++
	if r.tracedWrites%50 != 0 {
		return
	}
	st, err := r.e.Store.Stats()
	if err != nil {
		r.fail("stats: %v", err)
		return
	}
	r.tr.mu.Lock()
	r.tr.deltaMax = max(r.tr.deltaMax, float64(st.DeltaCount))
	r.tr.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
