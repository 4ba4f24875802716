package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"micronn/internal/vec"
)

// Shape fixes a synthetic corpus. Points are drawn from a Gaussian mixture
// of Centers clusters in a Latent-dimensional space (centers from N(0, 1),
// points at standard deviation Spread around their center), mapped into Dim
// dimensions by a fixed random linear map and blurred by isotropic Noise.
// A low intrinsic dimension gives the smooth neighbourhoods of real
// embeddings, so recall rises steadily with NProbe; an isotropic mixture in
// 128 dimensions makes every foreign cluster equidistant and recall
// plateaus instead. The shape is calibrated (see NOTES.md) so that
// recall@100 at the fixed NProbe sits near the paper's 0.9.
type Shape struct {
	N, Dim, Latent, Centers int
	Spread, Noise           float64
	Metric                  vec.Metric
}

// Attribute value ranges (see filterOf): cat takes 100 values, price 1000;
// range filters cut price at postCut-50 to postCut+49.
const (
	catValues   = 100
	priceValues = 1000
	postCut     = 300
	topicWords  = 6
	vocabGlobal = 400
)

// Corpus holds generated rows. Row i has id rowID(i), vector Vecs.Row(i)
// and attributes Cat[i], Price[i], Tags[i]. Queries are drawn from the same
// mixture and carry the cluster they came from, so hybrid text queries can
// name that cluster's topic words.
type Corpus struct {
	Shape   Shape
	Vecs    *vec.Matrix
	Cat     []int64
	Price   []int64
	Tags    []string
	Queries *vec.Matrix
	QTopic  []int

	centers *vec.Matrix
	proj    *vec.Matrix
	z       []float32
	rng     *rand.Rand // after Generate, owned by the one writer
}

func rowID(i int) string { return fmt.Sprintf("v%07d", i) }

// topicWord names word w of cluster c's topic.
func topicWord(c, w int) string { return fmt.Sprintf("t%dw%d", c, w) }

// globalWord draws a background word with a Zipf-like skew.
func globalWord(r *rand.Rand) string {
	u := r.Float64()
	return fmt.Sprintf("g%d", int(math.Floor(math.Pow(u, 3)*vocabGlobal)))
}

// Generate draws the corpus and nq queries from seed. The same seed always
// yields the same corpus.
func Generate(sh Shape, nq int, seed int64) *Corpus {
	r := rand.New(rand.NewSource(seed))
	c := &Corpus{Shape: sh, rng: r}
	c.centers = vec.NewMatrix(sh.Centers, sh.Latent)
	for i := 0; i < sh.Centers; i++ {
		row := c.centers.Row(i)
		for j := range row {
			row[j] = float32(r.NormFloat64())
		}
	}
	c.proj = vec.NewMatrix(sh.Dim, sh.Latent)
	for i := 0; i < sh.Dim; i++ {
		row := c.proj.Row(i)
		for j := range row {
			row[j] = float32(r.NormFloat64() * 10)
		}
	}
	c.z = make([]float32, sh.Latent)
	c.Vecs = vec.NewMatrix(sh.N, sh.Dim)
	c.Cat = make([]int64, sh.N)
	c.Price = make([]int64, sh.N)
	c.Tags = make([]string, sh.N)
	for i := 0; i < sh.N; i++ {
		cl := c.Sample(c.Vecs.Row(i))
		c.Cat[i], c.Price[i], c.Tags[i] = c.SampleAttrs(cl)
	}
	c.Queries = vec.NewMatrix(nq, sh.Dim)
	c.QTopic = make([]int, nq)
	for i := 0; i < nq; i++ {
		c.QTopic[i] = c.Sample(c.Queries.Row(i))
	}
	return c
}

// Sample draws one mixture point into dst and returns its cluster.
func (c *Corpus) Sample(dst []float32) int {
	cl := c.rng.Intn(c.Shape.Centers)
	ctr := c.centers.Row(cl)
	for j := range c.z {
		c.z[j] = ctr[j] + float32(c.rng.NormFloat64()*c.Shape.Spread)
	}
	for i := range dst {
		row := c.proj.Row(i)
		var s float32
		for j, zj := range c.z {
			s += row[j] * zj
		}
		dst[i] = s + float32(c.rng.NormFloat64()*c.Shape.Noise)
	}
	if c.Shape.Metric == vec.Cosine {
		vec.Normalize(dst)
	}
	return cl
}

// SampleAttrs draws the attributes of a row from cluster cl: a uniform cat
// and price, and 4-7 tags, half from the cluster's topic and half from the
// skewed background vocabulary.
func (c *Corpus) SampleAttrs(cl int) (cat, price int64, tags string) {
	r := c.rng
	n := 4 + r.Intn(4)
	words := make([]string, n)
	for i := range words {
		if i%2 == 0 {
			words[i] = topicWord(cl, r.Intn(topicWords))
		} else {
			words[i] = globalWord(r)
		}
	}
	return int64(r.Intn(catValues)), int64(r.Intn(priceValues)), strings.Join(words, " ")
}

// QueryText is the hybrid text of query qi: two words of its cluster topic.
func (c *Corpus) QueryText(qi int) string {
	t := c.QTopic[qi]
	return topicWord(t, qi%topicWords) + " " + topicWord(t, (qi+1)%topicWords)
}
