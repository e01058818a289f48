package serve

import (
	"context"
	"errors"
	"runtime/pprof"
	"time"

	"fairjob/internal/faultinject"
	"fairjob/internal/obs"
)

// Executor computes the request handed to Serve once it has passed
// validation, the cache probe and admission. It runs under the request's
// deadline and pprof labels, on the caller's goroutine: the engine
// executes against its pinned snapshot, the cluster coordinator scatters
// across its partitions.
type Executor func(ctx context.Context, tr *obs.Trace) Response

// EventHook returns a request's wide event with a front door's own
// fields added (the coordinator's fan-out cost block). The event travels
// by value so that it stays off the heap when the logger samples it out.
type EventHook func(ev obs.Event, resp Response) obs.Event

// Lifecycle is the request lifecycle every front door runs (DESIGN.md
// §10–11): validate → cache probe → deadline → admission → labeled
// execute → finish. Finishing publishes one outcome through every
// telemetry view: the serve_* request metrics, the latency exemplar, the
// SLO monitor, the trace and the wide event. The engine's lifecycle
// carries its result cache, admission gate and SLO monitor; the cluster
// coordinator's has none of them (NewLifecycle).
type Lifecycle struct {
	met      *requestMetrics
	tracer   *obs.Tracer     // nil disables per-query tracing
	log      *obs.Logger     // nil disables wide-event logging
	slo      *obs.SLOMonitor // nil disables SLO accounting
	cache    *lruCache       // nil when caching is disabled
	gate     *gate           // nil when admission control is disabled
	deadline time.Duration   // bounds requests without their own Deadline
}

// requestMetrics are the lifecycle's series, resolved against the
// registry once so the per-request path never touches the registry's
// lock or allocates a name string.
type requestMetrics struct {
	requests [problemCount]*obs.Counter   // indexed by Problem
	latency  [problemCount]*obs.Histogram // serve_request_seconds{problem=...}
	errors   *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvicts *obs.Counter

	// Resilience counters (DESIGN.md §10): how requests die when they do
	// not complete.
	shed      *obs.Counter // serve_shed_total
	deadlines *obs.Counter // serve_deadline_exceeded_total
	canceled  *obs.Counter // serve_canceled_total
	inflight  *obs.Gauge   // serve_inflight

	// Algorithm 3 random-access counts per comparison (Problem 2).
	compareAccesses *obs.Histogram
}

func newRequestMetrics(reg *obs.Registry) *requestMetrics {
	lat := obs.LatencyBuckets()
	m := &requestMetrics{
		errors:          reg.Counter("serve_errors_total"),
		cacheHits:       reg.Counter("serve_cache_hits_total"),
		cacheMisses:     reg.Counter("serve_cache_misses_total"),
		cacheEvicts:     reg.Counter("serve_cache_evictions_total"),
		shed:            reg.Counter("serve_shed_total"),
		deadlines:       reg.Counter("serve_deadline_exceeded_total"),
		canceled:        reg.Counter("serve_canceled_total"),
		inflight:        reg.Gauge("serve_inflight"),
		compareAccesses: reg.Histogram("compare_accesses", countBuckets()),
	}
	for _, p := range []Problem{Quantify, Compare, Mitigate} {
		m.requests[p] = reg.Counter(obs.Name("serve_requests_total", "problem", p.String()))
		m.latency[p] = reg.Histogram(obs.Name("serve_request_seconds", "problem", p.String()), lat)
	}
	return m
}

// NewLifecycle builds a lifecycle with no result cache, no admission gate
// and no SLO monitor — the cluster coordinator's front door. Its request
// metrics go to reg; a nil tracer or log disables tracing or wide
// events; deadline bounds requests that carry no Deadline of their own
// (0 leaves them unbounded).
func NewLifecycle(reg *obs.Registry, tracer *obs.Tracer, log *obs.Logger, deadline time.Duration) *Lifecycle {
	return &Lifecycle{met: newRequestMetrics(reg), tracer: tracer, log: log, deadline: deadline}
}

// Serve runs req, which it reads and does not retain, through the
// lifecycle. gen is the generation the request is answered against
// before it computes — the engine's pinned snapshot, 0 where the
// executor pins its own — and keys the cache. tr may be nil; Serve
// finishes it and hands it back to the tracer. hook may be nil. The
// request travels by pointer and the executor takes none: on the
// cluster path the node-side chain runs on a fresh transport goroutine,
// and every large by-value copy deepens the stack it must grow.
//
// The cache probe sits BEFORE the deadline and the gate on purpose — a
// cached answer costs no compute, so it is served even when the gate is
// shedding everything, which keeps hot queries alive through overload.
func (l *Lifecycle) Serve(ctx context.Context, req *Request, gen uint64, tr *obs.Trace, exec Executor, hook EventHook) Response {
	start := time.Now()
	tr.SetGen(gen)
	if err := validate(req); err != nil {
		// A validation reject is the caller's bug, not the front door's
		// unavailability: no latency sample, no request count, no SLO
		// observation — but it does get a wide event, because "who sends
		// malformed queries" is an operational question.
		l.met.errors.Inc()
		tr.Annotate("err", err.Error())
		return l.finish(req, Response{Gen: gen, Err: err}, tr, start, "", hook, false)
	}
	tr.Phase("validate")
	l.met.requests[req.Problem].Inc()
	var key cacheKey
	if l.cache != nil {
		key = req.key(gen)
		if resp, ok := l.cache.Get(key); ok {
			l.met.cacheHits.Inc()
			tr.Phase("cache-lookup")
			tr.Annotate("cache", "hit")
			resp.CacheHit = true
			return l.finish(req, resp, tr, start, "hit", hook, true)
		}
		l.met.cacheMisses.Inc()
	}
	tr.Phase("cache-lookup")
	cache := "miss"
	if l.cache == nil {
		cache = "off"
	}

	if d := req.Deadline; d > 0 || l.deadline > 0 {
		if d <= 0 {
			d = l.deadline
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	faultinject.Inject(faultinject.QueueDelay)
	var refused error
	if l.gate != nil {
		weight := requestWeight(req)
		if refused = l.gate.acquire(ctx, weight); refused == nil {
			defer l.gate.release(weight)
		}
	} else if err := ctx.Err(); err != nil {
		// No gate to observe the context; still refuse dead requests
		// before spending compute on them.
		refused = ctxError(err)
	}

	var resp Response
	if refused != nil {
		// Shed, expired or canceled before admission: the request never
		// executes, but it still lands one latency sample, one SLO
		// observation and one wide event.
		resp = Response{Gen: gen, Err: refused}
	} else {
		l.met.inflight.Add(1)
		// Execute under pprof labels: every CPU sample the request burns —
		// including in goroutines the executor spawns, which inherit the
		// labels — is attributed to its request kind.
		pprof.Do(ctx, profileLabels(req, cache), func(ctx context.Context) {
			resp = exec(ctx, tr)
		})
		l.met.inflight.Add(-1)
		tr.Phase("execute")
		if resp.Err == nil {
			if req.Problem == Compare && resp.Comparison != nil {
				l.met.compareAccesses.Observe(float64(resp.Comparison.Accesses))
			}
			if l.cache != nil && l.cache.Put(key, resp) {
				l.met.cacheEvicts.Inc()
			}
		}
		tr.Phase("access-accounting")
	}
	if resp.Err != nil {
		l.met.errors.Inc()
		l.countFailure(resp.Err)
		tr.Annotate("err", resp.Err.Error())
	}
	return l.finish(req, resp, tr, start, cache, hook, true)
}

// finish closes the request on every path. Validation rejects pass
// counted=false: they land no latency sample and no SLO observation.
func (l *Lifecycle) finish(req *Request, resp Response, tr *obs.Trace, start time.Time, cache string, hook EventHook, counted bool) Response {
	lat := time.Since(start)
	outcome := Outcome(resp.Err)
	tr.SetOutcome(outcome)
	// Finish before publishing the trace ID anywhere: the tail sampler
	// decides retention there, and only a retained trace's ID (JoinID)
	// may land in the latency exemplar and the wide event — otherwise
	// the metric → trace join would dangle for sampled-out successes.
	l.tracer.Finish(tr)
	if counted {
		l.met.latency[req.Problem].ObserveWithExemplar(lat.Seconds(), tr.JoinID())
		l.slo.Observe(lat, resp.Err)
	}
	l.emit(req, &resp, tr, outcome, lat, cache, hook)
	l.tracer.Release(tr)
	return resp
}

// emit assembles and logs the request's wide event. It runs after the
// trace finishes, so the event carries the final outcome and the same
// join ID the latency exemplar published — the three telemetry views
// join on it, and a trace the tail sampler dropped contributes no ID at
// all (the join never dangles). Access-cost counters are only
// attributed to requests that actually computed (a cache hit spends
// none).
func (l *Lifecycle) emit(req *Request, resp *Response, tr *obs.Trace, outcome string, lat time.Duration, cache string, hook EventHook) {
	if l.log == nil {
		return
	}
	ev := obs.Event{
		Outcome:   outcome,
		LatencyNS: lat.Nanoseconds(),
		TraceID:   tr.JoinID(),
		Gen:       resp.Gen,
		Problem:   req.Problem.String(),
		Cache:     cache,
	}
	if tr != nil {
		ev.QueueWaitNS = int64(tr.QueueWait)
	}
	if resp.Err != nil {
		ev.Err = resp.Err.Error()
	}
	switch req.Problem {
	case Quantify:
		ev.Dim = req.Dim.String()
		ev.K = req.K
		ev.Direction = req.Direction.String()
		ev.Algo = req.Algorithm.String()
		if !resp.CacheHit {
			ev.SortedAccesses = resp.Stats.SortedAccesses
			ev.RandomAccesses = resp.Stats.RandomAccesses
			ev.Rounds = resp.Stats.Rounds
		}
	case Compare:
		ev.Dim = req.Of.String()
		ev.R1, ev.R2 = req.R1, req.R2
		ev.By = req.By.String()
		if resp.Comparison != nil && !resp.CacheHit {
			ev.CompareAccesses = resp.Comparison.Accesses
		}
	case Mitigate:
		// The generic operand fields carry the mitigation coordinates:
		// r1 = target group key, r2 = query, by = location.
		ev.Mitigator = req.Mitigator.String()
		ev.R1, ev.R2 = req.Group, req.Query
		ev.By = req.Location
		if resp.Mitigation != nil {
			ev.DeltaUnfairness = resp.Mitigation.Delta()
		}
	}
	if hook != nil {
		ev = hook(ev, *resp)
	}
	l.log.Log(ev)
}

// countFailure classifies a request failure into the resilience
// counters. Recovered panics are counted at the recovery site, not here,
// so a panic is never double-counted.
func (l *Lifecycle) countFailure(err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		l.met.shed.Inc()
	case errors.Is(err, ErrDeadlineExceeded):
		l.met.deadlines.Inc()
	case errors.Is(err, ErrCanceled):
		l.met.canceled.Inc()
	}
}
