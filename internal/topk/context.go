package topk

import (
	"context"

	"fairjob/internal/faultinject"
)

// canceler is the per-run cooperative cancellation checkpoint. Each
// algorithm state embeds one and calls check at its round boundary
// (and, for the scan-heavy phases, every checkpointStride accesses), so
// a canceled or expired context stops a run within a bounded number of
// list accesses rather than at the end of the computation. The zero
// value — and a context with a nil Done channel, like
// context.Background() — never cancels and costs one nil compare per
// check, keeping the no-deadline hot path free.
type canceler struct {
	ctx  context.Context
	done <-chan struct{}
}

// checkpointStride bounds how many list accesses the inner scan loops
// (naive full scan, FA completion) perform between cancellation checks.
// It is a power of two so the loops can test `counter&(stride-1) == 0`.
const checkpointStride = 64

func newCanceler(ctx context.Context) canceler {
	if ctx == nil {
		return canceler{}
	}
	return canceler{ctx: ctx, done: ctx.Done()}
}

// check returns the context's error once it is done, nil before. It is
// also the topk.slow-evaluator failpoint: chaos builds arm it to stall
// every round, which is how the deadline tests force a mid-run expiry
// deterministically.
func (c canceler) check() error {
	faultinject.Inject(faultinject.SlowEvaluator)
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// TopKCtxWith is TopK with cooperative cancellation and an optional
// Recorder: the run observes ctx at every round boundary and returns
// ctx.Err() (context.Canceled or context.DeadlineExceeded, untyped by
// this package) once it fires, discarding partial results. Only
// completed runs report Stats to rec — a canceled run's partial access
// counts are returned to the caller but never recorded, so the
// telemetry histograms describe finished work. A Background context
// makes it equivalent to TopKWith.
func TopKCtxWith(ctx context.Context, src ListSource, k int, dir Direction, algo Algorithm, rec Recorder) ([]Result, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, errKNotPositive(k)
	}
	cc := newCanceler(ctx)
	run := func(s ListSource) ([]Result, Stats, error) {
		switch algo {
		case TA:
			st := newTAState(s, k)
			st.cancel = cc
			return st.run()
		case FA:
			st := newFAState(s, k)
			st.cancel = cc
			return st.run()
		case Naive:
			st := newNaiveState(s, k)
			st.cancel = cc
			return st.run()
		case NRA:
			st := newNRAState(s, k)
			st.cancel = cc
			return st.run()
		default:
			panic(errUnknownAlgorithm(algo))
		}
	}
	runSrc := src
	if dir == LeastUnfair {
		runSrc = reversedLists{src}
	}
	results, stats, err := run(runSrc)
	if err != nil {
		return nil, stats, err
	}
	if dir == LeastUnfair {
		for i := range results {
			results[i].Value = -results[i].Value
		}
	}
	if rec != nil {
		rec.RecordTopK(algo, dir, stats)
	}
	return results, stats, nil
}
