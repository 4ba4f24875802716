package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"micronn"
)

// Op kinds of a workload's read mix.
const (
	opSearch   = 'S' // unfiltered top-K Search
	opFiltered = 'F' // attribute-filtered top-K Search
	opBatch    = 'B' // BatchSearch of BatchSize queries
	opHybrid   = 'H' // HybridSearch on tag text
)

// Runner drives one workload's closed loops and checks every answer.
type Runner struct {
	e    *Env
	live *Live
	tr   *Tracer // nil in end-to-end runs

	mu  sync.Mutex // guards everything below up to attempted
	lat map[string][]float64
	// recall accumulators; only fed while the store still matches the
	// reference answers computed at set-up.
	recall, frecall         float64
	recallN, frecallN       int
	filtered, prefiltered   int
	scanned, rowsFiltered   int64
	reranked, rerankedN     int64
	batchScans, batchPairs  int64
	failures                []string
	static                  bool
	attempted, failed, done atomic.Int64

	qSearch, qFiltered, qHybrid int // next query index per op kind
	nextRead                    int // position in the read mix
	wrng                        *rand.Rand
	nextNew, tracedWrites       int // writer-owned
}

func newRunner(e *Env, seed int64) *Runner {
	return &Runner{
		e: e, live: newLive(e.C), lat: map[string][]float64{}, static: true,
		wrng: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

func (r *Runner) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.lat[name] = append(r.lat[name], float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// fail counts a failed call or answer check.
func (r *Runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *Runner) query(qi int) []float32 { return r.e.C.Queries.Row(qi % r.e.C.Queries.Rows) }

// checkList verifies one result list: K entries, distinct ids, every id
// live, distances exact and ascending, and the filter (if any) holding.
// Rows written while the query ran are exempt from the per-row checks.
func (r *Runner) checkList(what string, q []float32, ids []string, dists []float32, since time.Time, pred func(cat, price int64) bool, ascending bool) bool {
	if len(ids) != K {
		r.fail("%s: %d results, want %d", what, len(ids), K)
		return false
	}
	seen := make(map[string]struct{}, len(ids))
	for i, id := range ids {
		if _, dup := seen[id]; dup {
			r.fail("%s: duplicate id %s", what, id)
			return false
		}
		seen[id] = struct{}{}
		if ascending && i > 0 && dists[i] < dists[i-1] && !closeTo(dists[i], dists[i-1]) {
			r.fail("%s: distances out of order at %d", what, i)
			return false
		}
		st, known, stable := r.live.stable(id, since)
		if !known {
			r.fail("%s: unknown id %s", what, id)
			return false
		}
		if !stable {
			continue
		}
		if !st.live {
			r.fail("%s: deleted id %s returned", what, id)
			return false
		}
		if want := dist(r.e.Rows.Metric, q, st.vec); !closeTo(dists[i], want) {
			r.fail("%s: id %s distance %g, exact %g", what, id, dists[i], want)
			return false
		}
		if pred != nil && !pred(st.cat, st.price) {
			r.fail("%s: id %s fails the filter", what, id)
			return false
		}
	}
	return true
}

func resultIDs(rs []micronn.Result) ([]string, []float32) {
	ids := make([]string, len(rs))
	ds := make([]float32, len(rs))
	for i, x := range rs {
		ids[i], ds[i] = x.ID, x.Distance
	}
	return ids, ds
}

// addRecall folds one answer into a recall accumulator while the
// reference answers still hold.
func (r *Runner) addRecall(filtered bool, ids, want []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.static {
		return
	}
	if filtered {
		r.frecall += recall(ids, want)
		r.frecallN++
	} else {
		r.recall += recall(ids, want)
		r.recallN++
	}
}

func (r *Runner) doSearch() {
	qi := r.qSearch % r.e.C.Queries.Rows
	r.qSearch++
	q := r.query(qi)
	req := micronn.SearchRequest{Vector: q, K: K, NProbe: r.e.W.NProbe}
	op := r.tr.root("search")
	r.attempted.Add(1)
	start := time.Now()
	sp := r.tr.start(op, "micronn.Search")
	resp, err := r.e.Store.Search(req)
	r.tr.end(sp)
	d := time.Since(start)
	if err != nil {
		r.fail("search: %v", err)
		r.tr.end(op)
		return
	}
	r.done.Add(1)
	r.sample("search", d)
	ids, ds := resultIDs(resp.Results)
	if r.checkList("search", q, ids, ds, start, nil, true) && r.e.Ref != nil {
		r.addRecall(false, ids, r.e.Ref[qi])
	}
	r.mu.Lock()
	r.reranked += int64(resp.Plan.Reranked)
	r.rerankedN++
	r.mu.Unlock()
	if op >= 0 {
		r.probeSearch(op, req, d)
	}
	r.tr.end(op)
}

func (r *Runner) doFiltered() {
	qi := r.qFiltered % r.e.C.Queries.Rows
	r.qFiltered++
	q := r.query(qi)
	f, pred := filterOf(qi)
	req := micronn.SearchRequest{Vector: q, K: K, NProbe: r.e.W.NProbe, Filters: []micronn.Filter{f}}
	op := r.tr.root("filtered")
	r.attempted.Add(1)
	start := time.Now()
	sp := r.tr.start(op, "micronn.Search")
	resp, err := r.e.Store.Search(req)
	r.tr.end(sp)
	d := time.Since(start)
	r.tr.end(op)
	if err != nil {
		r.fail("filtered search: %v", err)
		return
	}
	r.done.Add(1)
	r.sample("filtered", d)
	ids, ds := resultIDs(resp.Results)
	if r.checkList("filtered search", q, ids, ds, start, pred, true) && r.e.RefF != nil {
		r.addRecall(true, ids, r.e.RefF[qi])
	}
	r.mu.Lock()
	r.filtered++
	if resp.Plan.Plan == micronn.PlanPreFilter {
		r.prefiltered++
	}
	r.scanned += resp.Plan.VectorsScanned
	r.rowsFiltered += resp.Plan.RowsFiltered
	r.mu.Unlock()
}

func (r *Runner) doBatch() {
	qs := make([][]float32, BatchSize)
	qis := make([]int, BatchSize)
	for i := range qs {
		qis[i] = r.qSearch % r.e.C.Queries.Rows
		r.qSearch++
		qs[i] = r.query(qis[i])
	}
	op := r.tr.root("batch")
	r.attempted.Add(1)
	start := time.Now()
	sp := r.tr.start(op, "micronn.BatchSearch")
	resp, err := r.e.Store.BatchSearch(micronn.BatchSearchRequest{Vectors: qs, K: K, NProbe: r.e.W.NProbe})
	r.tr.end(sp)
	d := time.Since(start)
	r.tr.end(op)
	if err != nil {
		r.fail("batch search: %v", err)
		return
	}
	r.done.Add(1)
	r.sample("batch", d/BatchSize)
	if len(resp.Results) != BatchSize {
		r.fail("batch search: %d result lists, want %d", len(resp.Results), BatchSize)
		return
	}
	for i, rs := range resp.Results {
		ids, ds := resultIDs(rs)
		if r.checkList("batch search", qs[i], ids, ds, start, nil, true) && r.e.Ref != nil {
			r.addRecall(false, ids, r.e.Ref[qis[i]])
		}
	}
	r.mu.Lock()
	r.batchScans += int64(resp.Info.PartitionScans)
	r.batchPairs += int64(resp.Info.QueryPartitionPairs)
	r.mu.Unlock()
}

func (r *Runner) doHybrid() {
	qi := r.qHybrid % r.e.C.Queries.Rows
	r.qHybrid++
	q := r.query(qi)
	req := micronn.HybridRequest{Vector: q, Text: r.e.C.QueryText(qi), K: K, NProbe: r.e.W.NProbe}
	op := r.tr.root("hybrid")
	r.attempted.Add(1)
	start := time.Now()
	sp := r.tr.start(op, "micronn.HybridSearch")
	resp, err := r.e.Store.HybridSearch(req)
	r.tr.end(sp)
	d := time.Since(start)
	if err != nil {
		r.fail("hybrid search: %v", err)
		r.tr.end(op)
		return
	}
	r.done.Add(1)
	r.sample("hybrid", d)
	ids := make([]string, len(resp.Results))
	ds := make([]float32, len(resp.Results))
	for i, x := range resp.Results {
		ids[i], ds[i] = x.ID, x.Distance
		if i > 0 && x.Score > resp.Results[i-1].Score {
			r.fail("hybrid search: scores out of order at %d", i)
			r.tr.end(op)
			return
		}
	}
	r.checkList("hybrid search", q, ids, ds, start, nil, false)
	if op >= 0 {
		r.probeHybrid(op, req, d)
	}
	r.tr.end(op)
}

// doWrite sends one Upsert (half overwrites, a quarter new ids) or Delete
// (a quarter), then checks it with Get.
func (r *Runner) doWrite() {
	var id string
	del := false
	switch x := r.wrng.Intn(4); {
	case x < 2:
		id = r.live.pick(r.wrng.Int())
	case x == 2:
		id = fmt.Sprintf("n%07d", r.nextNew)
		r.nextNew++
	default:
		id, del = r.live.pick(r.wrng.Int()), true
	}
	op := r.tr.root("write")
	defer r.tr.end(op)
	r.live.begin(id)
	r.attempted.Add(1)
	if del {
		sp := r.tr.start(op, "micronn.Delete")
		t := time.Now()
		err := r.e.Store.Delete(id)
		d := time.Since(t)
		r.tr.end(sp)
		r.live.end(id, err == nil, false, nil, 0, 0)
		if err != nil {
			r.fail("delete %s: %v", id, err)
			return
		}
		r.done.Add(1)
		r.sample("write", d)
		r.attempted.Add(1)
		if _, err := r.e.Store.Get(id); !errors.Is(err, micronn.ErrNotFound) {
			r.fail("get after delete %s: got %v, want ErrNotFound", id, err)
		}
		return
	}
	v := make([]float32, r.e.W.Shape.Dim)
	cl := r.e.C.Sample(v)
	cat, price, tags := r.e.C.SampleAttrs(cl)
	it := micronn.Item{ID: id, Vector: v, Attributes: map[string]any{"cat": cat, "price": price, "tags": tags}}
	sp := r.tr.start(op, "micronn.Upsert")
	t := time.Now()
	err := r.e.Store.Upsert(it)
	d := time.Since(t)
	r.tr.end(sp)
	r.live.end(id, err == nil, true, v, cat, price)
	if err != nil {
		r.fail("upsert %s: %v", id, err)
		return
	}
	r.done.Add(1)
	r.sample("write", d)
	r.attempted.Add(1)
	got, err := r.e.Store.Get(id)
	if err != nil {
		r.fail("get after upsert %s: %v", id, err)
		return
	}
	if len(got.Vector) != len(v) {
		r.fail("get after upsert %s: dim %d", id, len(got.Vector))
		return
	}
	for j := range v {
		if got.Vector[j] != v[j] {
			r.fail("get after upsert %s: vector differs at %d", id, j)
			return
		}
	}
}

func (r *Runner) doRead(op byte) {
	switch op {
	case opSearch:
		r.doSearch()
	case opFiltered:
		r.doFiltered()
	case opBatch:
		r.doBatch()
	case opHybrid:
		r.doHybrid()
	}
}

// timed runs the workload's closed loops for d: the read mix alone, then
// writes alone, or (Concurrent) one reader and one writer side by side.
// It returns the wall time it measured.
func (r *Runner) timed(d time.Duration) time.Duration {
	start := time.Now()
	if r.e.W.Concurrent {
		r.concurrent(start.Add(d))
		return time.Since(start)
	}
	r.reads(start.Add(time.Duration(float64(d) * (1 - r.e.W.WriteShare))))
	r.writes(start.Add(d))
	return time.Since(start)
}

// reads runs the read mix until deadline.
func (r *Runner) reads(deadline time.Time) {
	mix := r.e.W.Mix
	for time.Now().Before(deadline) {
		r.doRead(mix[r.nextRead%len(mix)])
		r.nextRead++
	}
}

// writes runs the writer until deadline; the store stops matching the
// set-up reference answers with the first write.
func (r *Runner) writes(deadline time.Time) {
	r.mu.Lock()
	r.static = false
	r.mu.Unlock()
	for time.Now().Before(deadline) {
		r.doWrite()
		r.writeTick()
	}
}

// concurrent runs one writer goroutine beside the read mix until deadline.
func (r *Runner) concurrent(deadline time.Time) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.writes(deadline)
	}()
	r.mu.Lock()
	r.static = false
	r.mu.Unlock()
	r.reads(deadline)
	wg.Wait()
}

// finalRecall measures recall after a run that wrote: exact answers over
// the live set the benchmark tracked, for the first n queries of each kind.
func (r *Runner) finalRecall(n int) {
	rows := &Rows{Metric: r.e.Rows.Metric}
	cat, price := r.live.snapshot(rows)
	qs := make([][]float32, n)
	for i := range qs {
		qs[i] = r.query(i)
	}
	ref := rows.topKAll(qs, K, nil)
	refF := rows.topKAll(qs, K, func(qi int) func(int) bool {
		_, pred := filterOf(qi)
		return rowFilter(pred, cat, price)
	})
	since := time.Now()
	for qi, q := range qs {
		for _, filtered := range []bool{false, true} {
			req := micronn.SearchRequest{Vector: q, K: K, NProbe: r.e.W.NProbe}
			var pred func(cat, price int64) bool
			want := ref[qi]
			if filtered {
				var f micronn.Filter
				f, pred = filterOf(qi)
				req.Filters = []micronn.Filter{f}
				want = refF[qi]
			}
			r.attempted.Add(1)
			resp, err := r.e.Store.Search(req)
			if err != nil {
				r.fail("final search: %v", err)
				continue
			}
			ids, ds := resultIDs(resp.Results)
			if !r.checkList("final search", q, ids, ds, since, pred, true) {
				continue
			}
			if filtered {
				r.frecall += recall(ids, want)
				r.frecallN++
			} else {
				r.recall += recall(ids, want)
				r.recallN++
			}
		}
	}
}

// percentile returns the nearest-rank p-quantile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*p+0.999999) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
