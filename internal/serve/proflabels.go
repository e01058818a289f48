package serve

import (
	"runtime/pprof"
)

// ProfileLabels is the pprof label set attached to a request's execution
// (DESIGN.md §13), by the engine and by the cluster coordinator alike.
// Every CPU-profile sample taken while the request computes carries
// these labels, so a profile captured under load decomposes by request
// kind: problem for all requests, the problem's discriminating knob
// (top-k algorithm and dimension, compare dimension, mitigator), and the
// cache disposition — "miss" samples are the compute the cache failed to
// save, "off" means the request runs uncached (always, on the cluster
// path).
//
// Labels are attached after the cache probe, so cache hits (which spend
// no compute worth attributing) never appear in profiles, and the label
// cardinality stays bounded by the request vocabulary: no IDs, keys or
// other unbounded values ever become label values.
func ProfileLabels(req Request, cache string) pprof.LabelSet {
	switch req.Problem {
	case Quantify:
		return pprof.Labels(
			"problem", req.Problem.String(),
			"algo", req.Algorithm.String(),
			"dim", req.Dim.String(),
			"cache", cache,
		)
	case Compare:
		return pprof.Labels(
			"problem", req.Problem.String(),
			"dim", req.Of.String(),
			"cache", cache,
		)
	case Mitigate:
		return pprof.Labels(
			"problem", req.Problem.String(),
			"mitigator", req.Mitigator.String(),
			"cache", cache,
		)
	default:
		return pprof.Labels(
			"problem", req.Problem.String(),
			"cache", cache,
		)
	}
}
