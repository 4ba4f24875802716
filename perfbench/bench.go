package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"micronn"
	"micronn/internal/clustering"
	"micronn/internal/ivf"
	"micronn/internal/quant"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// setupReps is how many times a run sets its store up; setup_s is the
// median.
const setupReps = 3

// finalQueries is how many queries of each kind measure recall after a run
// whose reader overlapped writes.
const finalQueries = 300

// countQueries is how many queries the traced run's count pass sends.
const countQueries = 200

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report collects a run's metrics with their sample counts, plus metadata.
type Report struct {
	Result  Result
	Samples map[string]int
	Meta    map[string]any
	NA      []string
}

func newReport(w Workload, seed int64) *Report {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return &Report{
		Result:  Result{Metrics: map[string]Metric{}},
		Samples: map[string]int{},
		Meta: map[string]any{
			"workload": w.Name, "seed": seed,
			"host": map[string]any{
				"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			},
			"corpus": map[string]any{
				"n": w.Shape.N, "dim": w.Shape.Dim, "latent": w.Shape.Latent, "centers": w.Shape.Centers,
				"spread": w.Shape.Spread, "noise": w.Shape.Noise, "metric": w.Shape.Metric.String(),
				"queries": w.Queries,
			},
			"nprobe": w.NProbe, "k": K, "shards": max(1, w.Shards), "quantization": w.Quant.String(),
			"pool_budget_bytes": w.Device.CacheBytes, "mix": w.Mix, "write_share": w.WriteShare,
			"concurrent_writer": w.Concurrent, "auto_maintain": w.AutoMaintain,
		},
	}
}

func (rp *Report) put(name, unit string, v float64, samples int) {
	rp.Result.Metrics[name] = Metric{Value: v, Unit: unit}
	rp.Samples[name] = samples
}

// na reports a metric that does not apply to the workload as 0.
func (rp *Report) na(name, unit string) {
	rp.put(name, unit, 0, 0)
	rp.NA = append(rp.NA, name)
}

// finish fills the correctness fields from the runner.
func (rp *Report) finish(r *Runner) {
	rp.Result.Attempted = r.attempted.Load()
	rp.Result.Failed = r.failed.Load()
	rp.Result.Correct = rp.Result.Failed == 0 && rp.Result.Attempted > 0
	rp.Meta["fail_ratio"] = float64(rp.Result.Failed) / float64(max(1, rp.Result.Attempted))
	rp.Meta["failures"] = r.failures
}

// RunEndToEnd sets the workload up setupReps times, runs the timed phase on
// the last store and reports the end-to-end metrics.
func RunEndToEnd(w Workload, seed int64, seconds int, dir string) (*Report, error) {
	rp := newReport(w, seed)
	var setups []float64
	var e *Env
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		e, err = Setup(w, seed, dir, !w.Concurrent)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupReps-1 {
			if err := e.Close(); err != nil {
				return nil, err
			}
		}
	}
	defer e.Close()
	rp.put("setup_s", "s", median(setups), len(setups))
	rp.Meta["setup_phases_s"] = e.Phases
	if err := describeStore(rp, e); err != nil {
		return nil, err
	}

	r := newRunner(e, seed)
	warmup(e)
	elapsed := r.timed(time.Duration(seconds) * time.Second)
	if w.Concurrent {
		r.finalRecall(finalQueries)
	}
	r.mu.Lock()
	lat := r.lat
	r.mu.Unlock()
	putLatency(rp, "search", lat["search"], 0.99)
	putLatency(rp, "filtered", lat["filtered"], 0)
	putLatency(rp, "hybrid", lat["hybrid"], 0.90)
	putLatency(rp, "write", lat["write"], 0)
	rp.put("batch_query_ms", "ms", median(lat["batch"]), len(lat["batch"]))
	rp.put("recall_at_100", "ratio", r.recall/float64(max(1, r.recallN)), r.recallN)
	rp.put("filtered_recall_at_100", "ratio", r.frecall/float64(max(1, r.frecallN)), r.frecallN)
	rp.put("ops_per_s", "1/s", float64(r.done.Load())/elapsed.Seconds(), int(r.done.Load()))
	rp.Meta["timed_s"] = elapsed.Seconds()
	heapMB, err := storeHeap(e)
	if err != nil {
		return nil, err
	}
	rp.put("store_heap_mb", "MiB", heapMB, 1)
	rp.finish(r)
	return rp, nil
}

// putLatency reports an op's median and, unless tail is 0, its tail
// latency. The filtered and write p99s do not repeat from run to run (a
// run holds about 1% of slow calls, so the p99 lands on either side of
// the gap), so they are per-layer diagnostics of the traced run instead.
func putLatency(rp *Report, op string, xs []float64, tail float64) {
	rp.put(op+"_p50_ms", "ms", median(xs), len(xs))
	if tail > 0 {
		putTail(rp, op, xs, tail)
	}
}

func putTail(rp *Report, op string, xs []float64, tail float64) {
	name := fmt.Sprintf("%s_p%d_ms", op, int(tail*100+0.5))
	rp.put(name, "ms", percentile(append([]float64(nil), xs...), tail), len(xs))
}

// warmup sends untimed searches from the end of the query pool, so the
// first timed calls do not pay for lazily loaded centroids and codebooks.
func warmup(e *Env) {
	for i := 0; i < 32; i++ {
		q := e.C.Queries.Row(e.C.Queries.Rows - 1 - i)
		_, _ = e.Store.Search(micronn.SearchRequest{Vector: q, K: K, NProbe: e.W.NProbe})
	}
}

// describeStore records file bytes against pool bytes: whether the
// workload runs out of cache.
func describeStore(rp *Report, e *Env) error {
	file, pool, err := e.FileBytes()
	if err != nil {
		return err
	}
	rp.Meta["file_bytes"] = file
	rp.Meta["pool_bytes"] = pool
	rp.Meta["file_over_pool"] = float64(file) / float64(max(1, pool))
	return nil
}

// storeHeap returns the live heap the open store holds at the end of a
// run: the heap after a Checkpoint and a forced GC with the store open,
// minus the heap once it is closed. The Checkpoint folds the WAL, whose
// page images and index otherwise grow with however many writes the run
// happened to send.
func storeHeap(e *Env) (float64, error) {
	if err := e.Store.Checkpoint(); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	open := m.HeapAlloc
	if err := e.Close(); err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(int64(open)-int64(m.HeapAlloc)) / (1 << 20), nil
}

// counters sums the storage counters of every store.
func counters(e *Env) (pool storage.Stats, maint micronn.MaintenanceTotals) {
	for _, db := range e.DBs {
		s := db.InternalStore().Stats()
		pool.PoolHits += s.PoolHits
		pool.PoolMisses += s.PoolMisses
		pool.PoolEvictions += s.PoolEvictions
		pool.PagesWritten += s.PagesWritten
		pool.GateWaitNs += s.GateWaitNs
		mt, _ := db.MaintenanceTotals()
		maint.Flushes += mt.Flushes
		maint.Splits += mt.Splits
		maint.Merges += mt.Merges
		maint.RowChanges += mt.RowChanges
		maint.StaleRetries += mt.StaleRetries
	}
	return pool, maint
}

// RunTraced runs the workload once untraced and once traced, each for half
// the timed phase, then a deterministic count pass and the kernel probes,
// and reports the per-layer metrics.
func RunTraced(w Workload, seed int64, seconds int, dir, spanPath string) (*Report, error) {
	rp := newReport(w, seed)
	e, err := Setup(w, seed, dir, !w.Concurrent)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	rp.put("ivf.rebuild_s", "s", e.Phases["rebuild"], 1)
	if err := describeStore(rp, e); err != nil {
		return nil, err
	}
	r := newRunner(e, seed)
	t := newTracer()
	r.tr = t
	warmup(e)

	total := time.Duration(seconds) * time.Second
	readDur := time.Duration(float64(total) * (1 - w.WriteShare))
	if w.Concurrent {
		readDur = total
	}
	// all keeps the latencies of the whole traced run, across segments.
	all := map[string][]float64{}
	keep := func() {
		r.mu.Lock()
		for k, xs := range r.lat {
			all[k] = append(all[k], xs...)
		}
		r.lat = map[string][]float64{}
		r.mu.Unlock()
	}
	segment := func(traced bool) (float64, int) {
		keep()
		t.on = traced
		end := time.Now().Add(readDur / 2)
		if w.Concurrent {
			r.concurrent(end)
		} else {
			r.reads(end)
		}
		t.on = false
		r.mu.Lock()
		defer r.mu.Unlock()
		return median(r.lat["search"]), len(r.lat["search"])
	}
	untracedP50, nu := segment(false)
	poolBefore, maintBefore := counters(e)
	writesBefore := r.tracedWrites
	tracedP50, nt := segment(true)
	rp.put("trace.overhead_search_p50_ms", "ms", tracedP50-untracedP50, min(nu, nt))

	if !w.Concurrent {
		if err := r.countPass(rp); err != nil {
			return nil, err
		}
		poolBefore, maintBefore = counters(e)
		writesBefore = r.tracedWrites
		t.on = true
		r.writes(time.Now().Add(total - readDur))
		t.on = false
	}
	keep()
	putTail(rp, "filtered", all["filtered"], 0.99)
	putTail(rp, "write", all["write"], 0.99)
	poolAfter, maintAfter := counters(e)
	writes := float64(max(1, r.tracedWrites-writesBefore))
	per1k := func(a, b int64) float64 { return float64(b-a) * 1000 / writes }
	rp.put("ivf.flushes_per_1k_writes", "count", per1k(maintBefore.Flushes, maintAfter.Flushes), int(writes))
	rp.put("ivf.splits_per_1k_writes", "count", per1k(maintBefore.Splits, maintAfter.Splits), int(writes))
	rp.put("ivf.merges_per_1k_writes", "count", per1k(maintBefore.Merges, maintAfter.Merges), int(writes))
	rp.put("ivf.row_changes_per_write", "count", float64(maintAfter.RowChanges-maintBefore.RowChanges)/writes, int(writes))
	rp.put("ivf.stale_retries", "count", float64(maintAfter.StaleRetries-maintBefore.StaleRetries), int(writes))
	rp.put("ivf.delta_rows_max", "count", t.deltaMax, int(writes)/50)
	rp.put("storage.pages_written_per_write", "count", float64(poolAfter.PagesWritten-poolBefore.PagesWritten)/writes, int(writes))
	rp.put("storage.gate_wait_us_per_write", "us", float64(poolAfter.GateWaitNs-poolBefore.GateWaitNs)/1e3/writes, int(writes))
	if w.Concurrent {
		if err := r.countPass(rp); err != nil {
			return nil, err
		}
	}

	putMedian := func(name, unit string) {
		xs := t.samples[name]
		if len(xs) == 0 {
			rp.na(name, unit)
			return
		}
		rp.put(name, unit, median(xs), len(xs))
	}
	dbUS, ivfUS := t.samples["micronn.db_search_us"], t.samples["ivf.view_search_us"]
	rp.put("micronn.search_self_us", "us", median(dbUS)-median(ivfUS), min(len(dbUS), len(ivfUS)))
	rp.put("ivf.search_us", "us", median(ivfUS), len(ivfUS))
	putMedian("micronn.shard_fanout_us", "us")
	putMedian("micronn.hybrid_fusion_us", "us")
	putMedian("ivf.scan_ns_per_row", "ns")
	putMedian("ivf.rerank_us", "us")
	putMedian("ivf.lexical_us", "us")
	putMedian("ivf.lexical_docs_per_query", "count")
	putMedian("topk.merge_us", "us")
	putMedian("reldb.decode_ns_per_row", "ns")
	putMedian("btree.cursor_ns_per_row", "ns")
	putMedian("storage.view_us", "us")

	r.mu.Lock()
	rp.put("micronn.batch_share", "ratio", 1-float64(r.batchScans)/float64(max(1, r.batchPairs)), int(r.batchPairs))
	rp.put("ivf.filter_pass_ratio", "ratio", float64(r.scanned)/float64(max(1, r.scanned+r.rowsFiltered)), r.filtered)
	rp.put("stats.prefilter_share", "ratio", float64(r.prefiltered)/float64(max(1, r.filtered)), r.filtered)
	if w.Quant != micronn.QuantNone {
		rp.put("ivf.reranked_per_query", "count", float64(r.reranked)/float64(max(1, r.rerankedN)), int(r.rerankedN))
	} else {
		rp.na("ivf.reranked_per_query", "count")
	}
	r.mu.Unlock()

	for layer, v := range t.selfTimes() {
		rp.put(layer+".self_us_per_op", "us", v, int(t.ops))
	}
	for _, layer := range []string{"micronn", "ivf", "storage", "reldb", "btree", "topk"} {
		if _, ok := rp.Result.Metrics[layer+".self_us_per_op"]; !ok {
			rp.na(layer+".self_us_per_op", "us")
		}
	}

	l2, sq8 := kernels(e.C)
	rp.put("vec.l2_mbps", "MB/s", l2, 5)
	rp.put("quant.sq8_mbps", "MB/s", sq8, 5)
	kernelUS := (median(t.samples["kernel.code_bytes"])/sq8 + median(t.samples["kernel.float_bytes"])/l2)
	rp.put("vec.kernel_share", "ratio", kernelUS/max(median(ivfUS), 1e-9), len(ivfUS))

	// k-means over one store's share of the vectors, as its Rebuild trains.
	rows := e.C.Vecs.Rows / max(1, len(e.DBs))
	km := vec.NewMatrix(rows, e.C.Vecs.Dim)
	for i := 0; i < rows; i++ {
		km.SetRow(i, e.C.Vecs.Row(i))
	}
	kt := time.Now()
	if _, err := clustering.MiniBatchKMeans(clustering.Config{TargetClusterSize: 100, Metric: w.Shape.Metric, Seed: seed}, clustering.MatrixSource{M: km}); err != nil {
		return nil, err
	}
	rp.put("clustering.kmeans_ms", "ms", float64(time.Since(kt).Microseconds())/1e3, 1)

	rp.Meta["spans"] = len(t.spans)
	rp.Meta["traced_ops"] = t.ops
	if err := t.write(spanPath); err != nil {
		return nil, err
	}
	rp.Meta["span_file"] = spanPath
	rp.finish(r)
	return rp, nil
}

// countPass drops every cache, then sends countQueries unfiltered queries
// one at a time through ivf.Index.Search with sequential partition scans
// and reports what they read. On a single store the counts repeat exactly
// for the same seed.
func (r *Runner) countPass(rp *Report) error {
	e := r.e
	for _, db := range e.DBs {
		db.DropCaches()
	}
	before, _ := counters(e)
	nprobe := (e.W.NProbe + len(e.DBs) - 1) / len(e.DBs)
	var parts, scanned, bytes int64
	for qi := 0; qi < countQueries; qi++ {
		q := r.query(qi)
		for _, db := range e.DBs {
			ix := db.InternalIndex()
			err := db.InternalStore().View(func(rt *storage.ReadTxn) error {
				_, info, err := ix.Search(seqTxn{rt}, q, ivf.SearchOptions{K: K, NProbe: nprobe})
				if err != nil {
					return err
				}
				parts += int64(info.PartitionsScanned)
				scanned += info.VectorsScanned
				bytes += info.BytesScanned
				return nil
			})
			if err != nil {
				return fmt.Errorf("count pass: %w", err)
			}
		}
	}
	after, _ := counters(e)
	n := float64(countQueries)
	hits := float64(after.PoolHits - before.PoolHits)
	misses := float64(after.PoolMisses - before.PoolMisses)
	rp.put("ivf.partitions_per_query", "count", float64(parts)/n, countQueries)
	rp.put("ivf.vectors_scanned_per_query", "count", float64(scanned)/n, countQueries)
	rp.put("ivf.bytes_scanned_per_query", "bytes", float64(bytes)/n, countQueries)
	rp.put("storage.pool_hit_ratio", "ratio", hits/max(1, hits+misses), countQueries)
	rp.put("storage.pool_misses_per_query", "count", misses/n, countQueries)
	rp.put("storage.pool_evictions_per_query", "count", float64(after.PoolEvictions-before.PoolEvictions)/n, countQueries)
	return nil
}

// kernelSink keeps the kernel loops' results live.
var kernelSink float32

// kernels measures the distance kernels on the workload's own vectors:
// float32 squared L2, and the SQ8 asymmetric kernel over codes trained
// and encoded from the same vectors. Each is the median of five passes.
func kernels(c *Corpus) (l2MBps, sq8MBps float64) {
	m := c.Vecs
	q := c.Queries.Row(0)
	var l2, sq []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		for i := 0; i < m.Rows; i++ {
			kernelSink += vec.L2Squared(q, m.Row(i))
		}
		l2 = append(l2, float64(m.Rows*m.Dim*4)/1e6/time.Since(t).Seconds())
	}
	tr := quant.NewTrainer(m.Dim)
	for i := 0; i < m.Rows; i++ {
		tr.Add(m.Row(i))
	}
	cb := tr.Codebook()
	codes := make([]byte, 0, m.Rows*cb.CodeSize())
	for i := 0; i < m.Rows; i++ {
		codes = cb.Encode(codes, m.Row(i))
	}
	qq := cb.NewQuery(c.Shape.Metric, q)
	out := make([]float32, m.Rows)
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		qq.DistancesMany(codes, m.Rows, out)
		sq = append(sq, float64(len(codes))/1e6/time.Since(t).Seconds())
		kernelSink += out[rep]
	}
	return median(l2), median(sq)
}

// print writes the human-readable report, the metadata line and, last, the
// result line.
func (rp *Report) print(traced bool) error {
	names := make([]string, 0, len(rp.Result.Metrics))
	for n := range rp.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Printf("# %s metrics, workload %v, seed %v\n", kind, rp.Meta["workload"], rp.Meta["seed"])
	for _, n := range names {
		m := rp.Result.Metrics[n]
		fmt.Printf("%-36s %14.4f %-6s samples=%d\n", n, m.Value, m.Unit, rp.Samples[n])
	}
	rp.Meta["samples"] = rp.Samples
	rp.Meta["not_applicable"] = rp.NA
	meta, err := jsonLine(rp.Meta)
	if err != nil {
		return err
	}
	fmt.Println("# meta " + meta)
	res, err := jsonLine(rp.Result)
	if err != nil {
		return err
	}
	fmt.Println(res)
	return nil
}

func jsonLine(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}
