package main

import (
	"fmt"
	"io"
	"time"

	"micronn"
)

// Calibrate prints recall@K, vectors scanned and mean latency at several
// NProbe values on the workload's corpus, for the first nq queries. It is
// how the shapes and NProbe constants in workloads.go were chosen.
func Calibrate(out io.Writer, w Workload, seed int64, dir string, nq int) error {
	w.Queries = nq
	e, err := Setup(w, seed, dir, true)
	if err != nil {
		return err
	}
	defer e.Close()
	st, err := e.Store.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %+v partitions=%d smallest=%d largest=%d setup=%v\n",
		w.Name, w.Shape, st.NumPartitions, st.SmallestPartition, st.LargestPartition, e.Phases)
	for _, np := range []int{2, 4, 8, 10, 12, 16, 32, 64} {
		var rec, frec float64
		var scanned int64
		var el time.Duration
		for qi := 0; qi < nq; qi++ {
			q := e.C.Queries.Row(qi)
			t := time.Now()
			resp, err := e.Store.Search(micronn.SearchRequest{Vector: q, K: K, NProbe: np})
			el += time.Since(t)
			if err != nil {
				return err
			}
			ids := make([]string, len(resp.Results))
			for i, r := range resp.Results {
				ids[i] = r.ID
			}
			rec += recall(ids, e.Ref[qi])
			scanned += resp.Plan.VectorsScanned
			f, _ := filterOf(qi)
			fresp, err := e.Store.Search(micronn.SearchRequest{Vector: q, K: K, NProbe: np, Filters: []micronn.Filter{f}})
			if err != nil {
				return err
			}
			ids = ids[:0]
			for _, r := range fresp.Results {
				ids = append(ids, r.ID)
			}
			frec += recall(ids, e.RefF[qi])
		}
		fmt.Fprintf(out, "  nprobe=%-3d recall@%d=%.4f filtered=%.4f scanned/q=%d mean=%.2fms\n",
			np, K, rec/float64(nq), frec/float64(nq), scanned/int64(nq), float64(el.Microseconds())/1000/float64(nq))
	}
	return nil
}
