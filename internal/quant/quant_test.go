package quant

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"micronn/internal/vec"
)

func randVectors(seed int64, n, dim int, scale float32) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64()) * scale
		}
		out[i] = v
	}
	return out
}

func trainOn(vectors [][]float32) *Codebook {
	t := NewTrainer(len(vectors[0]))
	for _, v := range vectors {
		t.Add(v)
	}
	return t.Codebook()
}

func TestEncodeDecodeRoundTripErrorBound(t *testing.T) {
	const dim = 37 // odd size exercises the kernel tails
	vectors := randVectors(1, 500, dim, 3)
	cb := trainOn(vectors)

	dec := make([]float32, dim)
	var code []byte
	for _, v := range vectors {
		code = cb.Encode(code[:0], v)
		cb.Decode(dec, code)
		for d := range v {
			// Rounding to the nearest of 256 levels bounds the error by
			// half a step.
			bound := float64(cb.Delta[d])/2 + 1e-5
			if diff := math.Abs(float64(v[d] - dec[d])); diff > bound {
				t.Fatalf("dim %d: |%v - %v| = %v exceeds half-step bound %v", d, v[d], dec[d], diff, bound)
			}
		}
	}
}

func TestEncodeClampsOutOfRange(t *testing.T) {
	cb := &Codebook{Min: []float32{0}, Delta: []float32{1.0 / 255}}
	lo := cb.Encode(nil, []float32{-10})
	hi := cb.Encode(nil, []float32{10})
	if lo[0] != 0 || hi[0] != 255 {
		t.Fatalf("clamp: got %d and %d, want 0 and 255", lo[0], hi[0])
	}
}

func TestConstantDimension(t *testing.T) {
	vectors := [][]float32{{5, 1}, {5, 2}, {5, 3}}
	cb := trainOn(vectors)
	if cb.Delta[0] != 0 {
		t.Fatalf("constant dim delta = %v, want 0", cb.Delta[0])
	}
	dec := make([]float32, 2)
	cb.Decode(dec, cb.Encode(nil, []float32{5, 2}))
	if dec[0] != 5 {
		t.Fatalf("constant dim decodes to %v, want 5", dec[0])
	}
}

func TestEmptyTrainerCodebook(t *testing.T) {
	cb := NewTrainer(4).Codebook()
	dec := make([]float32, 4)
	cb.Decode(dec, cb.Encode(nil, []float32{1, 2, 3, 4}))
	for d, x := range dec {
		if x != 0 {
			t.Fatalf("empty codebook decodes dim %d to %v, want 0", d, x)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	vectors := randVectors(2, 100, 19, 2)
	cb := trainOn(vectors)
	got, err := UnmarshalCodebook(cb.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for d := range cb.Min {
		if got.Min[d] != cb.Min[d] || got.Delta[d] != cb.Delta[d] {
			t.Fatalf("dim %d: got (%v,%v), want (%v,%v)", d, got.Min[d], got.Delta[d], cb.Min[d], cb.Delta[d])
		}
	}
	if _, err := UnmarshalCodebook([]byte{9, 0, 0, 0, 0}); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := UnmarshalCodebook([]byte{1, 2}); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestAsymmetricDistanceMatchesDecoded checks that Query.Distance equals
// vec.Distance against the decoded vector, for every metric: the asymmetric
// kernels are an algebraic refactoring, not an extra approximation.
func TestAsymmetricDistanceMatchesDecoded(t *testing.T) {
	const dim = 45
	vectors := randVectors(3, 200, dim, 4)
	cb := trainOn(vectors)
	queries := randVectors(4, 10, dim, 4)

	dec := make([]float32, dim)
	for _, metric := range []vec.Metric{vec.L2, vec.Dot, vec.Cosine} {
		for _, q := range queries {
			qq := cb.NewQuery(metric, q)
			var code []byte
			for _, v := range vectors {
				code = cb.Encode(code[:0], v)
				got := qq.Distance(code)
				want := vec.Distance(metric, q, cb.Decode(dec, code))
				tol := 1e-2 * (1 + math.Abs(float64(want)))
				if diff := math.Abs(float64(got - want)); diff > tol {
					t.Fatalf("%v: asymmetric %v vs decoded %v (diff %v)", metric, got, want, diff)
				}
			}
		}
	}
}

func TestDistancesMany(t *testing.T) {
	const dim, n = 16, 33
	vectors := randVectors(5, n, dim, 2)
	cb := trainOn(vectors)
	q := randVectors(6, 1, dim, 2)[0]
	qq := cb.NewQuery(vec.L2, q)

	var packed []byte
	for _, v := range vectors {
		packed = cb.Encode(packed, v)
	}
	out := make([]float32, n)
	qq.DistancesMany(packed, n, out)
	for i, v := range vectors {
		want := qq.Distance(cb.Encode(nil, v))
		// The blocked multi-row kernel accumulates in a different order
		// than the single-row kernel, so allow float rounding slack.
		if diff := math.Abs(float64(out[i] - want)); diff > 1e-4*(1+math.Abs(float64(want))) {
			t.Fatalf("row %d: %v != %v", i, out[i], want)
		}
	}
}

// TestDistancesManySharedQuery drives the SQ8 L2 table scan the way the
// partition scan workers do: many goroutines share one Query, and the
// first call of at least 32 rows builds the lookup table the others read.
// Every result must equal a single-threaded scan bit for bit; a table
// published before it is filled shows up as a mismatch (and as a race
// under -race).
func TestDistancesManySharedQuery(t *testing.T) {
	const dim, n, workers, rounds = 64, 96, 8, 20
	vectors := randVectors(7, n, dim, 3)
	cb := trainOn(vectors)
	var packed []byte
	for _, v := range vectors {
		packed = cb.Encode(packed, v)
	}
	queries := randVectors(8, rounds, dim, 3)
	for r, q := range queries {
		want := make([]float32, n)
		cb.NewQuery(vec.L2, q).DistancesMany(packed, n, want)

		shared := cb.NewQuery(vec.L2, q)
		got := make([][]float32, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Workers scan different row counts (all >= 32), like
				// partitions of different sizes.
				rows := n - 8*w%64
				got[w] = make([]float32, rows)
				shared.DistancesMany(packed, rows, got[w])
			}(w)
		}
		wg.Wait()
		for w, out := range got {
			for i, d := range out {
				if math.Float32bits(d) != math.Float32bits(want[i]) {
					t.Fatalf("round %d worker %d row %d: %v, single-threaded %v", r, w, i, d, want[i])
				}
			}
		}
	}
}

// TestQuantizedOrderingQuality sanity-checks that SQ8 distances order a
// clustered collection nearly as well as exact distances: the exact nearest
// neighbour should appear in the quantized top-4.
func TestQuantizedOrderingQuality(t *testing.T) {
	const dim, n = 32, 400
	vectors := randVectors(7, n, dim, 5)
	cb := trainOn(vectors)
	queries := randVectors(8, 20, dim, 5)

	hits := 0
	for _, q := range queries {
		bestExact, bestD := -1, float32(math.MaxFloat32)
		for i, v := range vectors {
			if d := vec.Distance(vec.L2, q, v); d < bestD {
				bestExact, bestD = i, d
			}
		}
		qq := cb.NewQuery(vec.L2, q)
		type cand struct {
			i int
			d float32
		}
		cands := make([]cand, n)
		var code []byte
		for i, v := range vectors {
			code = cb.Encode(code[:0], v)
			cands[i] = cand{i, qq.Distance(code)}
		}
		for pass := 0; pass < 4; pass++ { // partial selection of top-4
			min := pass
			for j := pass + 1; j < n; j++ {
				if cands[j].d < cands[min].d {
					min = j
				}
			}
			cands[pass], cands[min] = cands[min], cands[pass]
			if cands[pass].i == bestExact {
				hits++
				break
			}
		}
	}
	if hits < 18 {
		t.Fatalf("exact NN in quantized top-4 for only %d/20 queries", hits)
	}
}

func BenchmarkAsymmetricL2(b *testing.B) {
	const dim, n = 128, 256
	vectors := randVectors(9, n, dim, 3)
	cb := trainOn(vectors)
	var packed []byte
	for _, v := range vectors {
		packed = cb.Encode(packed, v)
	}
	q := randVectors(10, 1, dim, 3)[0]
	qq := cb.NewQuery(vec.L2, q)
	out := make([]float32, n)
	// Warm the lazily built per-byte LUT so the benchmark measures
	// steady-state scan throughput, not the one-time table build.
	qq.DistancesMany(packed, n, out)
	b.SetBytes(int64(n * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qq.DistancesMany(packed, n, out)
	}
}
