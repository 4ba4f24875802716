package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"micronn"
)

// Workload fixes everything a run depends on except the seed and length.
// Stores use default options apart from the device profile, quantization,
// shard count, attribute schema and background maintenance.
type Workload struct {
	Name         string
	Shape        Shape
	NProbe       int
	Queries      int
	Shards       int
	Quant        micronn.Quantization
	Device       micronn.DeviceProfile
	AutoMaintain bool
	// Mix is the read loop's repeating op sequence (see the op kinds in
	// run.go). Without Concurrent, the last WriteShare of the timed phase
	// sends writes alone; with it, one writer runs beside the reader for
	// the whole phase.
	Mix        string
	WriteShare float64
	Concurrent bool
}

// K is the result count of every query the benchmark sends.
const K = 100

// BatchSize is the query count of every BatchSearch call.
const BatchSize = 16

var attrs = []micronn.AttributeDef{
	{Name: "cat", Type: micronn.AttrInt, Indexed: true},
	{Name: "price", Type: micronn.AttrInt, Indexed: true},
	{Name: "tags", Type: micronn.AttrText, FullText: true},
}

// filterOf returns query qi's filter and the predicate on (cat, price) it
// stands for. Even queries select 1% of rows by an indexed equality, which
// the optimizer drives through the attribute index (PreFilter); odd ones
// select 25-35% by a range, which it applies while scanning the probed
// partitions (PostFilter).
func filterOf(qi int) (micronn.Filter, func(cat, price int64) bool) {
	if qi%2 == 0 {
		want := int64(qi % catValues)
		return micronn.Eq("cat", want), func(cat, _ int64) bool { return cat == want }
	}
	bound := int64(postCut - 50 + qi%100)
	return micronn.Lt("price", bound), func(_, price int64) bool { return price < bound }
}

// rowFilter adapts a (cat, price) predicate to row indexes.
func rowFilter(pred func(cat, price int64) bool, cat, price []int64) func(int) bool {
	return func(i int) bool { return pred(cat[i], price[i]) }
}

// Env is one set-up workload: the corpus, the reference answers and the
// open store.
type Env struct {
	W      Workload
	C      *Corpus
	Rows   *Rows
	Store  micronn.Store
	DBs    []*micronn.DB
	Dir    string
	Ref    [][]string // exact top-K per query
	RefF   [][]string // exact filtered top-K per query
	Phases map[string]float64
}

func item(c *Corpus, i int, v []float32) micronn.Item {
	return micronn.Item{ID: rowID(i), Vector: v, Attributes: map[string]any{
		"cat": c.Cat[i], "price": c.Price[i], "tags": c.Tags[i],
	}}
}

// Setup generates the corpus, computes reference answers (unless the
// workload's references depend on the run), loads, rebuilds and
// checkpoints a fresh store under dir. Phases records each step's seconds.
func Setup(w Workload, seed int64, dir string, withRefs bool) (*Env, error) {
	e := &Env{W: w, Dir: dir, Phases: map[string]float64{}}
	t := time.Now()
	lap := func(name string) {
		e.Phases[name] = time.Since(t).Seconds()
		t = time.Now()
	}
	e.C = Generate(w.Shape, w.Queries, seed)
	e.Rows = &Rows{Metric: w.Shape.Metric, Vecs: make([][]float32, w.Shape.N), IDs: make([]string, w.Shape.N)}
	for i := range e.Rows.Vecs {
		e.Rows.Vecs[i] = e.C.Vecs.Row(i)
		e.Rows.IDs[i] = rowID(i)
	}
	lap("generate")
	if withRefs {
		qs := e.queries()
		e.Ref = e.Rows.topKAll(qs, K, nil)
		e.RefF = e.Rows.topKAll(qs, K, func(qi int) func(int) bool {
			_, pred := filterOf(qi)
			return rowFilter(pred, e.C.Cat, e.C.Price)
		})
	}
	lap("reference")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := micronn.Options{
		Dim: w.Shape.Dim, Metric: w.Shape.Metric, Attributes: attrs,
		Device: w.Device, Quantization: w.Quant, AutoMaintain: w.AutoMaintain,
		Shards: w.Shards, Seed: seed,
	}
	if w.Shards > 0 {
		s, err := micronn.OpenSharded(filepath.Join(dir, "db"), opts)
		if err != nil {
			return nil, fmt.Errorf("open sharded: %w", err)
		}
		e.Store = s
		for i := 0; i < s.Shards(); i++ {
			e.DBs = append(e.DBs, s.Shard(i))
		}
	} else {
		db, err := micronn.Open(filepath.Join(dir, "db.mnn"), opts)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		e.Store = db
		e.DBs = []*micronn.DB{db}
	}
	const chunk = 1000
	for lo := 0; lo < w.Shape.N; lo += chunk {
		hi := min(lo+chunk, w.Shape.N)
		items := make([]micronn.Item, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, item(e.C, i, e.C.Vecs.Row(i)))
		}
		if err := e.Store.UpsertBatch(items); err != nil {
			e.Close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	lap("load")
	if _, err := e.Store.Rebuild(); err != nil {
		e.Close()
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	lap("rebuild")
	if err := e.Store.Checkpoint(); err != nil {
		e.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	lap("checkpoint")
	return e, nil
}

func (e *Env) queries() [][]float32 {
	qs := make([][]float32, e.C.Queries.Rows)
	for i := range qs {
		qs[i] = e.C.Queries.Row(i)
	}
	return qs
}

// Close closes the store and removes its files.
func (e *Env) Close() error {
	var err error
	if e.Store != nil {
		err = e.Store.Close()
		e.Store, e.DBs = nil, nil
	}
	if rerr := os.RemoveAll(e.Dir); err == nil {
		err = rerr
	}
	return err
}

// FileBytes sums the store's page-file sizes; PoolBytes its pool budgets.
func (e *Env) FileBytes() (file, pool int64, err error) {
	for _, db := range e.DBs {
		st, serr := db.Stats()
		if serr != nil {
			return 0, 0, serr
		}
		file += st.FileBytes
		pool += st.CacheBudget
	}
	return file, pool, nil
}
