package micronn

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Typed sentinel errors. Every error returned by DB and ShardedDB that a
// caller can act on programmatically wraps one of these, so call sites can
// use errors.Is instead of matching message strings:
//
//	if errors.Is(err, micronn.ErrNotFound) { ... }
//
// The CLI maps each sentinel to a distinct exit code.
var (
	// ErrNotFound is returned when an id is absent (Get, Delete).
	ErrNotFound = errors.New("micronn: not found")
	// ErrClosed is returned by any operation on a database handle whose
	// Close has already been called.
	ErrClosed = errors.New("micronn: database is closed")
	// ErrDimMismatch is returned when a vector's dimensionality does not
	// match the database's configured Dim (upserts and queries).
	ErrDimMismatch = errors.New("micronn: dimension mismatch")
	// ErrBadRequest is returned when a request fails validation before
	// touching the store: negative K/NProbe/RerankFactor, a vector with a
	// NaN or ±Inf component, an invalid option value at Open, and similar
	// caller mistakes.
	ErrBadRequest = errors.New("micronn: bad request")
)

// badRequestf builds an ErrBadRequest-wrapped validation error.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// checkVector rejects a vector whose dimension is not dim or that has a
// NaN or ±Inf component: one such vector among thousands would poison
// every distance it meets, in queries and in the index alike.
func checkVector(v []float32, dim int) error {
	if len(v) != dim {
		return fmt.Errorf("%w: dimension %d, want %d", ErrDimMismatch, len(v), dim)
	}
	for i, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return badRequestf("vector component %d is %v; components must be finite", i, x)
		}
	}
	return nil
}

// normalizeKnobs is the one defaulting-and-validation path for the knobs
// every query kind shares, so K, NProbe and RerankFactor defaulting cannot
// drift between Search, BatchSearch and HybridSearch, live or snapshot, on
// either database flavor. It leaves the request canonical — the knobs the
// request's path does not read are zeroed — so equal-by-behavior requests
// share one cache fingerprint. Idempotent.
func (r *router) normalizeKnobs(k, nprobe, rerank *int, exact bool) error {
	if *k < 0 {
		return badRequestf("K %d must not be negative", *k)
	}
	if *nprobe < 0 {
		return badRequestf("NProbe %d must not be negative", *nprobe)
	}
	if *rerank < 0 {
		return badRequestf("RerankFactor %d must not be negative", *rerank)
	}
	if *k == 0 {
		*k = 10
	}
	if exact {
		// The exhaustive path reads neither knob.
		*nprobe, *rerank = 0, 0
		return nil
	}
	if *nprobe == 0 {
		*nprobe = 8
	}
	cfg := r.shards[0].ix.Config()
	if cfg.Quantization == QuantNone {
		*rerank = 0
	} else if *rerank == 0 {
		*rerank = cfg.RerankFactor
	}
	return nil
}

func (r *router) normalizeSearch(req *SearchRequest) error {
	if err := r.normalizeKnobs(&req.K, &req.NProbe, &req.RerankFactor, req.Exact); err != nil {
		return err
	}
	return checkVector(req.Vector, r.shards[0].Dim())
}

func (r *router) normalizeBatch(req *BatchSearchRequest) error {
	if err := r.normalizeKnobs(&req.K, &req.NProbe, &req.RerankFactor, false); err != nil {
		return err
	}
	for i, q := range req.Vectors {
		if err := checkVector(q, r.shards[0].Dim()); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// normalizeHybrid normalizes the vector leg exactly like a Search and
// canonicalizes the lexical-leg knobs (TextCol, FusionK, fusion weights).
func (r *router) normalizeHybrid(req *HybridRequest) error {
	if req.FusionK < 0 {
		return badRequestf("FusionK %d must not be negative", req.FusionK)
	}
	if req.VectorWeight < 0 || req.TextWeight < 0 {
		return badRequestf("fusion weights must not be negative")
	}
	vreq := req.vectorRequest()
	if err := r.normalizeSearch(&vreq); err != nil {
		return err
	}
	req.K, req.NProbe, req.RerankFactor = vreq.K, vreq.NProbe, vreq.RerankFactor
	if req.Text == "" {
		// Pure vector query: zero every lexical knob so the request is
		// byte-equal to its Search counterpart in behavior and fingerprint.
		req.TextCol = ""
		req.FusionK = 0
		req.Weighted = false
		req.VectorWeight, req.TextWeight = 0, 0
		return nil
	}
	ftsCols := r.shards[0].ix.FullTextColumns()
	if req.TextCol == "" {
		switch len(ftsCols) {
		case 1:
			req.TextCol = ftsCols[0]
		case 0:
			return badRequestf("hybrid text search requires a FullText attribute")
		default:
			return badRequestf("TextCol required: store has %d full-text attributes", len(ftsCols))
		}
	} else if !slices.Contains(ftsCols, req.TextCol) {
		return badRequestf("TextCol %q has no full-text index", req.TextCol)
	}
	if req.FusionK == 0 {
		req.FusionK = defaultFusionK
	}
	if !req.Weighted {
		req.VectorWeight, req.TextWeight = 0, 0
	} else if req.VectorWeight == 0 && req.TextWeight == 0 {
		req.VectorWeight, req.TextWeight = 0.5, 0.5
	}
	return nil
}
