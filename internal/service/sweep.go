package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/logp-model/logp/internal/experiments"
)

// SweepAxes lists the values each swept dimension takes. An empty axis keeps
// the base spec's value. The expansion is the cartesian product in the fixed
// order P, L, o, g, n, seed (rightmost fastest), so the same request always
// produces the same point order and the same response bytes.
type SweepAxes struct {
	P    []int   `json:"p,omitempty"`    // processor counts
	L    []int64 `json:"l,omitempty"`    // latencies
	O    []int64 `json:"o,omitempty"`    // overheads
	G    []int64 `json:"g,omitempty"`    // gaps
	N    []int   `json:"n,omitempty"`    // problem sizes
	Seed []int64 `json:"seed,omitempty"` // machine seeds
}

// SweepRequest expands Base over Axes server-side.
type SweepRequest struct {
	Base JobSpec   `json:"base"` // spec every grid point starts from
	Axes SweepAxes `json:"axes"` // dimensions to vary
}

// SweepPoint summarizes one grid point. The full response body of any point
// is retrievable (and cached) under its spec hash via GET /v1/jobs/{hash}.
type SweepPoint struct {
	SpecHash string `json:"spec_hash"` // content address of the point's full spec
	P        int    `json:"p"`         // processor count at this point
	L        int64  `json:"l"`         // latency at this point
	O        int64  `json:"o"`         // overhead at this point
	G        int64  `json:"g"`         // gap at this point
	N        int    `json:"n"`         // problem size at this point
	Seed     int64  `json:"seed"`      // machine seed at this point
	Time     int64  `json:"time"`      // completion cycles of the run
	Messages int    `json:"messages"`  // messages the run delivered
}

// SweepResponse is the deterministic sweep body: points in expansion order.
// Cache effectiveness is reported in the X-Logpsimd-Cache-Hits/-Misses
// headers so a warm re-submission still returns byte-identical bytes.
type SweepResponse struct {
	Points []SweepPoint `json:"points"` // one summary per grid point, in expansion order
}

// maxSweepPoints caps the expansion of one sweep request.
const maxSweepPoints = 4096

// expand builds the normalized spec grid under DefaultLimits. Every returned
// spec has been validated; the first invalid point aborts the expansion.
func (r *SweepRequest) expand() ([]JobSpec, error) {
	orOne := func(n int) int {
		if n == 0 {
			return 1
		}
		return n
	}
	total := orOne(len(r.Axes.P)) * orOne(len(r.Axes.L)) * orOne(len(r.Axes.O)) *
		orOne(len(r.Axes.G)) * orOne(len(r.Axes.N)) * orOne(len(r.Axes.Seed))
	if total > maxSweepPoints {
		return nil, fmt.Errorf("service: sweep expands to %d points, limit %d", total, maxSweepPoints)
	}
	specs := make([]JobSpec, 0, total)
	forEach := func(spec JobSpec) error {
		if err := spec.Normalize(DefaultLimits); err != nil {
			return fmt.Errorf("sweep point %d: %w", len(specs), err)
		}
		specs = append(specs, spec)
		return nil
	}
	// Odometer over the six axes, empty axes pinned to the base value.
	base := r.Base
	for _, p := range valuesOr(r.Axes.P, base.Machine.P) {
		for _, l := range valuesOr(r.Axes.L, base.Machine.L) {
			for _, o := range valuesOr(r.Axes.O, base.Machine.O) {
				for _, g := range valuesOr(r.Axes.G, base.Machine.G) {
					for _, n := range valuesOr(r.Axes.N, base.N) {
						for _, seed := range valuesOr(r.Axes.Seed, base.Seed) {
							spec := base
							spec.Machine.P, spec.Machine.L, spec.Machine.O, spec.Machine.G = p, l, o, g
							spec.N, spec.Seed = n, seed
							if err := forEach(spec); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}

// valuesOr returns axis, or the single base value when the axis is empty.
func valuesOr[T any](axis []T, base T) []T {
	if len(axis) == 0 {
		return []T{base}
	}
	return axis
}

// maxSweepBody bounds a sweep request body.
const maxSweepBody = 4 << 20

// handleSweep answers a sweep. It reads the body once. If the sweep memo
// holds the expansion of these exact bytes and every point's body is
// cached, the sweep is answered from the memo (Cache.sweepHit): nothing is
// decoded, normalized or hashed. Otherwise it takes the full path, sweep,
// and a sweep whose every point ran is then memoized. Either way the
// response lists the points in expansion order, each read from the summary
// its cache entry stores beside the body, and per-point full responses
// stay cached under their spec hashes.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	key, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSweepBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding sweep: %w", err))
		return
	}
	if points, ok := s.cache.sweepHit(key); ok {
		writeSweep(w, points, len(points), 0)
		return
	}
	points, hits, misses, err := s.sweep(key)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.cache.fileMemo(key, points)
	writeSweep(w, points, hits, misses)
}

// writeSweep writes a sweep's reply: the cache counts in headers, so a warm
// re-submission still returns byte-identical bytes, and the body.
func writeSweep(w http.ResponseWriter, points []SweepPoint, hits, misses int) {
	w.Header().Set("X-Logpsimd-Cache-Hits", strconv.Itoa(hits))
	w.Header().Set("X-Logpsimd-Cache-Misses", strconv.Itoa(misses))
	w.Header().Set("Content-Type", "application/json")
	(&SweepResponse{Points: points}).writeTo(w)
}

// sweep is a sweep's full path: it decodes the request body, expands the
// grid and drives every point through the cache on the experiments
// parallel runner at the server's worker bound, each point hashed once. It
// returns the points with their summaries and the hit and miss counts, or
// the error of the first point in expansion order that failed.
func (s *Server) sweep(body []byte) (points []SweepPoint, hits, misses int, err error) {
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, 0, 0, fmt.Errorf("decoding sweep: %w", err)
	}
	specs, err := req.expand()
	if err != nil {
		return nil, 0, 0, err
	}

	// Each worker writes only its own point.
	points = make([]SweepPoint, len(specs))
	type outcome struct {
		hit bool
		err error
	}
	outs := experiments.MapIndexed(s.cfg.workers(), len(specs), func(k int) outcome {
		hash := specs[k].Hash()
		e, hit := s.runCached(specs[k], hash, nil)
		if e.err != nil {
			return outcome{err: fmt.Errorf("sweep point %d (%s): %w", k, hash[:12], e.err)}
		}
		points[k] = newSweepPoint(&specs[k], hash, e.sum)
		return outcome{hit: hit}
	})
	for _, o := range outs {
		if o.err != nil {
			// First failure in expansion order, matching the sequential loop.
			return nil, 0, 0, o.err
		}
		if o.hit {
			hits++
		} else {
			misses++
		}
	}
	return points, hits, misses, nil
}

// newSweepPoint is the summary of the point spec, with content address hash,
// whose run reported sum.
func newSweepPoint(spec *JobSpec, hash string, sum summary) SweepPoint {
	return SweepPoint{
		SpecHash: hash,
		P:        spec.Machine.P, L: spec.Machine.L, O: spec.Machine.O, G: spec.Machine.G,
		N: spec.N, Seed: spec.Seed,
		Time: sum.time, Messages: sum.messages,
	}
}
