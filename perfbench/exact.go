package main

import (
	"container/heap"
	"math"
	"runtime"
	"sync"

	"micronn/internal/vec"
)

// The reference is the benchmark's own: it shares no distance kernel or
// heap with the program it checks.

// dist computes the exact distance the program reports: squared L2, or
// 1 - cosine similarity.
func dist(m vec.Metric, a, b []float32) float32 {
	if m == vec.Cosine {
		return cosine(a, b, norm(a), norm(b))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

func dot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

func norm(a []float32) float32 { return float32(math.Sqrt(float64(dot(a, a)))) }

func cosine(a, b []float32, na, nb float32) float32 {
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot(a, b)/(na*nb)
}

// closeTo reports whether a reported distance matches the exact one,
// allowing for float32 summation-order differences.
func closeTo(got, want float32) bool {
	diff := math.Abs(float64(got - want))
	return diff <= 1e-3+1e-4*math.Abs(float64(want))
}

type cand struct {
	d float32
	i int
}

// maxHeap keeps the k best candidates with the worst on top; ties break on
// row index so the reference is a total order.
type maxHeap []cand

func (h maxHeap) Len() int { return len(h) }
func (h maxHeap) Less(a, b int) bool {
	if h[a].d != h[b].d {
		return h[a].d > h[b].d
	}
	return h[a].i > h[b].i
}
func (h maxHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *maxHeap) Push(x any)   { *h = append(*h, x.(cand)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Rows is the set of rows a reference answer ranges over.
type Rows struct {
	Metric vec.Metric
	Vecs   [][]float32
	IDs    []string
	norms  []float32 // per-row norms for cosine, filled by topKAll
}

// topK returns the ids of the k rows nearest to q among those keep accepts
// (keep nil accepts all), nearest first.
func (rs *Rows) topK(q []float32, k int, keep func(i int) bool) []string {
	h := make(maxHeap, 0, k+1)
	qn := norm(q)
	for i, v := range rs.Vecs {
		if keep != nil && !keep(i) {
			continue
		}
		var d float32
		if rs.Metric == vec.Cosine {
			d = cosine(q, v, qn, rs.norms[i])
		} else {
			d = dist(rs.Metric, q, v)
		}
		if len(h) < k {
			heap.Push(&h, cand{d, i})
		} else if d < h[0].d || (d == h[0].d && i < h[0].i) {
			h[0] = cand{d, i}
			heap.Fix(&h, 0)
		}
	}
	out := make([]string, len(h))
	for j := len(h) - 1; j >= 0; j-- {
		out[j] = rs.IDs[heap.Pop(&h).(cand).i]
	}
	return out
}

// topKAll answers every query in parallel; filt(qi) gives each query's row
// predicate (nil for all rows).
func (rs *Rows) topKAll(qs [][]float32, k int, filt func(qi int) func(int) bool) [][]string {
	out := make([][]string, len(qs))
	if rs.Metric == vec.Cosine && len(rs.norms) != len(rs.Vecs) {
		rs.norms = make([]float32, len(rs.Vecs))
		for i, v := range rs.Vecs {
			rs.norms[i] = norm(v)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < len(qs); qi += workers {
				var keep func(int) bool
				if filt != nil {
					keep = filt(qi)
				}
				out[qi] = rs.topK(qs[qi], k, keep)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// recall is |got ∩ want| / |want|.
func recall(got, want []string) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[string]struct{}, len(want))
	for _, id := range want {
		set[id] = struct{}{}
	}
	hit := 0
	for _, id := range got {
		if _, ok := set[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
