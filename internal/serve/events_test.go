package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// anchoredSnapshot serves the Figure-5-anchored table (anchoredTable).
func anchoredSnapshot(seed uint64) *serve.Snapshot {
	return serve.NewSnapshot(anchoredTable(seed))
}

// anchoredTable builds the Figure-5-anchored table the chaos tests also
// use: random data plus an anchor group whose every cell carries 0.94,
// the paper's worked exposure value for the female cohort.
func anchoredTable(seed uint64) *core.Table {
	rng := stats.NewRNG(seed)
	tbl := randomTable(rng, 6, 8, 8, 0.1)
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	for q := 0; q < 8; q++ {
		for l := 0; l < 8; l++ {
			tbl.Set(g, core.Query(fmt.Sprintf("q%02d", q)), core.Location(fmt.Sprintf("l%02d", l)), 0.94)
		}
	}
	return tbl
}

// frontDoor is one way into the request lifecycle: the engine, or a
// scatter coordinator over the same table. Both publish the same serve_*
// request metrics and wide events; only the engine has a result cache,
// an admission gate and an SLO monitor.
type frontDoor struct {
	name   string
	engine bool
	open   func(tbl *core.Table, reg *obs.Registry, log *obs.Logger, slo *obs.SLOMonitor) func(serve.Request) serve.Response
}

var frontDoors = []frontDoor{
	{"engine", true, func(tbl *core.Table, reg *obs.Registry, log *obs.Logger, slo *obs.SLOMonitor) func(serve.Request) serve.Response {
		return serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{Obs: reg, Log: log, SLO: slo}).Do
	}},
	{"cluster-p1", false, func(tbl *core.Table, reg *obs.Registry, log *obs.Logger, _ *obs.SLOMonitor) func(serve.Request) serve.Response {
		return cluster.New(tbl, cluster.Options{Partitions: 1, Obs: reg, Log: log, NodeCacheSize: -1}).Do
	}},
	{"cluster-p4", false, func(tbl *core.Table, reg *obs.Registry, log *obs.Logger, _ *obs.SLOMonitor) func(serve.Request) serve.Response {
		return cluster.New(tbl, cluster.Options{Partitions: 4, Obs: reg, Log: log, NodeCacheSize: -1}).Do
	}},
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDeadlineTraceableEndToEnd is the PR's headline acceptance path: a
// deadline-exceeded request on the Figure-5-anchored table must be
// traceable across all three telemetry views — the serve latency
// histogram's exemplar on /metrics, the tail-sampled trace retained in
// /debug/traces, and the wide event — all joined by one trace ID.
func TestDeadlineTraceableEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracerTailSampled(64, obs.TailSamplingPolicy{
		SlowThreshold: time.Hour, // nothing here is "slow"; retention is outcome-driven
		KeepOneInN:    1 << 40,   // drop essentially every fast-OK trace
	})
	logger := obs.NewLogger(obs.LoggerOptions{Component: "serve", SampleN: 1 << 40})
	eng := serve.NewEngine(anchoredSnapshot(61), serve.Options{
		Obs:       reg,
		Tracer:    tracer,
		Log:       logger,
		CacheSize: -1, // every request computes, so the deadline path is exercised for real
	})

	// A flood of fast successes: the tail sampler must not let these
	// evict the one interesting trace, and the logger must sample them
	// down to (at most) the first.
	okReq := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	for i := 0; i < 50; i++ {
		if resp := eng.Do(okReq); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	// The interesting request, issued last: top-k over the anchored
	// group dimension under an unmeetable deadline.
	resp := eng.Do(serve.Request{
		Problem:   serve.Quantify,
		Dim:       compare.ByGroup,
		K:         3,
		Algorithm: topk.TA,
		Deadline:  time.Nanosecond,
	})
	if !errors.Is(resp.Err, serve.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", resp.Err)
	}

	// View 1: the wide event. Failures are never sampled out, so it must
	// be present with the full request shape.
	var ev *obs.Event
	for _, e := range logger.Ring().Recent() {
		if e.Outcome == "deadline" {
			ev = e
			break
		}
	}
	if ev == nil {
		t.Fatalf("no deadline wide event in the ring (have %d events)", len(logger.Ring().Recent()))
	}
	if ev.TraceID == 0 {
		t.Fatal("deadline event carries no trace ID — the join key is missing")
	}
	if ev.Problem != "quantify" || ev.Dim != compare.ByGroup.String() || ev.K != 3 || ev.Algo != "TA" {
		t.Fatalf("event lost the request's identifying fields: %+v", ev)
	}
	if ev.Level != "warn" || ev.Err == "" || ev.Gen != eng.Snapshot().Gen() {
		t.Fatalf("event metadata wrong: %+v", ev)
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateEventJSON(raw); err != nil {
		t.Fatalf("deadline event fails its own schema: %v", err)
	}

	srv := httptest.NewServer(obs.NewHandler(obs.AdminOptions{Registry: reg, Tracer: tracer}))
	defer srv.Close()

	// View 2: /debug/traces — the tail sampler kept the deadline trace
	// through the flood, and the ?outcome=error filter finds it.
	code, body := getBody(t, srv.URL+"/debug/traces?outcome=error")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	var dump struct {
		Traces []*obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	var trace *obs.Trace
	for _, tr := range dump.Traces {
		if tr.ID == ev.TraceID {
			trace = tr
			break
		}
	}
	if trace == nil {
		t.Fatalf("trace %d not retained by the tail sampler (kept %d error traces)", ev.TraceID, len(dump.Traces))
	}
	if trace.Outcome != "deadline" || trace.Gen != ev.Gen {
		t.Fatalf("trace disagrees with the event: %+v", trace)
	}

	// View 3: /metrics — a serve latency bucket carries the trace ID as
	// its exemplar (the request was issued last, so its bucket's
	// most-recent exemplar is this trace). Exemplars are an OpenMetrics
	// construct, so the scrape negotiates that format; the classic 0.0.4
	// rendering must stay exemplar-free.
	mreq, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	mreq.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	rawMetrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	code, metrics := mresp.StatusCode, string(rawMetrics)
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	needle := fmt.Sprintf(`trace_id="%d"`, ev.TraceID)
	found := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `serve_request_seconds_bucket{problem="quantify"`) && strings.Contains(line, needle) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no serve_request_seconds bucket carries exemplar %s", needle)
	}

	// The default 0.0.4 scrape carries no exemplars at all — a classic
	// Prometheus parser would reject the whole scrape otherwise.
	code, plain := getBody(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics (0.0.4) = %d", code)
	}
	if strings.Contains(plain, " # ") {
		t.Fatal("0.0.4 /metrics body carries an exemplar suffix")
	}
}

// TestDroppedTraceLeavesNoDanglingJoin pins the other half of the join
// contract: a fast-OK trace the tail sampler drops must contribute no
// trace ID anywhere — not to the latency histogram's exemplars and not
// to its wide event — because that ID would resolve to nothing in
// /debug/traces.
func TestDroppedTraceLeavesNoDanglingJoin(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracerTailSampled(16, obs.TailSamplingPolicy{
		SlowThreshold: time.Hour,
		KeepOneInN:    1 << 40, // keep the first fast-OK trace, drop the rest
	})
	logger := obs.NewLogger(obs.LoggerOptions{Component: "serve"})
	eng := serve.NewEngine(anchoredSnapshot(67), serve.Options{
		Obs:       reg,
		Tracer:    tracer,
		Log:       logger,
		CacheSize: -1,
	})

	okReq := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	for i := 0; i < 4; i++ {
		if resp := eng.Do(okReq); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	retained := map[uint64]bool{}
	for _, tr := range tracer.Recent() {
		retained[tr.ID] = true
	}
	if len(retained) != 1 {
		t.Fatalf("sampler retained %d traces, want 1", len(retained))
	}

	// Wide events: the retained request carries its trace ID, the dropped
	// ones carry none.
	withID := 0
	for _, ev := range logger.Ring().Recent() {
		if ev.TraceID == 0 {
			continue
		}
		withID++
		if !retained[ev.TraceID] {
			t.Fatalf("event trace_id %d does not resolve in the trace ring", ev.TraceID)
		}
	}
	if withID != 1 {
		t.Fatalf("%d events carry a trace ID, want exactly the retained one", withID)
	}

	// Exemplars: every published trace ID must resolve in the ring.
	s := reg.Snapshot()
	for name, h := range s.Histograms {
		for i, ex := range h.Exemplars {
			if ex != nil && !retained[ex.TraceID] {
				t.Fatalf("%s bucket %d exemplar trace %d does not resolve in the trace ring", name, i, ex.TraceID)
			}
		}
		if ex := h.MaxExemplar; ex != nil && !retained[ex.TraceID] {
			t.Fatalf("%s max exemplar trace %d does not resolve in the trace ring", name, ex.TraceID)
		}
	}
}

// fakeClock mirrors the obs package's test clock: injected time so the
// SLO windows slide without sleeping.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// TestSLOBurnFlipsReadiness is the second acceptance path: a synthetic
// error burst flips /debug/slo to burning and /readyz to 503 under an
// injected clock, and readiness recovers once the windows slide past the
// burst — without a restart and without new traffic.
func TestSLOBurnFlipsReadiness(t *testing.T) {
	clock := &fakeClock{now: time.Date(2026, 2, 3, 12, 0, 0, 0, time.UTC)}
	slo := obs.NewSLOMonitor([]obs.Objective{
		{Name: "errors", Target: 0.99},
	}, obs.SLOOptions{Clock: clock.Now})
	reg := obs.NewRegistry()
	eng := serve.NewEngine(anchoredSnapshot(62), serve.Options{
		Obs:       reg,
		SLO:       slo,
		CacheSize: -1,
	})
	srv := httptest.NewServer(obs.NewHandler(obs.AdminOptions{
		Registry: reg,
		Health:   &obs.Health{Ready: eng.Ready},
		SLO:      slo,
	}))
	defer srv.Close()

	if err := eng.Ready(); err != nil {
		t.Fatalf("engine not ready before the burst: %v", err)
	}
	if code, _ := getBody(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before the burst", code)
	}

	// The burst: every request errors (the candidate restriction keeps no
	// members), sustained across 70 minutes of injected time so the fast
	// alert's 5m AND 1h windows both burn far past 14.4×.
	bad := serve.Request{
		Problem:    serve.Quantify,
		Dim:        compare.ByGroup,
		K:          2,
		Algorithm:  topk.TA,
		Candidates: []string{"cohort=nonexistent"},
	}
	for minute := 0; minute < 70; minute++ {
		for i := 0; i < 5; i++ {
			if resp := eng.Do(bad); resp.Err == nil {
				t.Fatal("burst request unexpectedly succeeded")
			}
		}
		clock.advance(time.Minute)
	}

	err := eng.Ready()
	if err == nil {
		t.Fatal("sustained burn did not flip Engine.Ready")
	}
	if !errors.Is(err, obs.ErrSLOBurning) {
		t.Fatalf("Ready() = %v, want ErrSLOBurning", err)
	}
	code, body := getBody(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d mid-burn, want 503 (%s)", code, body)
	}
	if !strings.Contains(body, "burning") {
		t.Fatalf("/readyz body does not explain the burn: %q", body)
	}
	code, body = getBody(t, srv.URL+"/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo = %d", code)
	}
	var st obs.SLOStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Burning {
		t.Fatal("/debug/slo does not report burning mid-burst")
	}

	// The burst ends; sliding the clock past the longest window clears
	// the alerts and readiness recovers.
	clock.advance(7 * time.Hour)
	if err := eng.Ready(); err != nil {
		t.Fatalf("Ready() after the windows slid: %v", err)
	}
	if code, _ := getBody(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz did not recover: %d", code)
	}
}

// TestWideEventSchemaGate is the observability gate's schema check: it
// drives the full battery workload plus every refusal path through a
// logging engine and validates each emitted event against EventSchema —
// no unknown fields, no missing required fields.
func TestWideEventSchemaGate(t *testing.T) {
	ring := obs.NewRingSink(4096)
	logger := obs.NewLogger(obs.LoggerOptions{Component: "serve", Sink: ring})
	snap := anchoredPagedSnapshot(63)
	eng := serve.NewEngine(snap, serve.Options{
		Workers: 4,
		Obs:     obs.NewRegistry(),
		Tracer:  obs.NewTracer(64),
		Log:     logger,
	})
	reqs := battery(snap)
	// Problem 3 rides the same engine: every mitigator's success path,
	// a snapshot-dependent failure (unknown page) and a validation
	// reject, so the mitigate-specific event fields pass the schema on
	// every outcome.
	for _, kind := range mitigate.Kinds() {
		reqs = append(reqs, serve.Request{
			Problem: serve.Mitigate, Mitigator: kind,
			Group: "ethnicity=Asian&gender=Female",
			Query: "Home Cleaning", Location: "San Francisco, CA",
		})
	}
	reqs = append(reqs,
		serve.Request{Problem: serve.Mitigate, Mitigator: mitigate.DetGreedy, Group: "ethnicity=Asian&gender=Female", Query: "no-such-page", Location: "nowhere"},
		serve.Request{Problem: serve.Mitigate, Mitigator: mitigate.Kind(9), Group: "ethnicity=Asian&gender=Female", Query: "Home Cleaning", Location: "San Francisco, CA"},
	)
	// Refusal and reject paths ride along: a validation reject, a dead
	// deadline, and a repeated request for a cache hit.
	reqs = append(reqs,
		serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 0, Algorithm: topk.TA},
		serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA, Deadline: time.Nanosecond},
		reqs[0],
	)
	eng.DoBatch(reqs)

	events := ring.Recent()
	if len(events) != len(reqs) {
		t.Fatalf("emitted %d events for %d requests", len(events), len(reqs))
	}
	for _, e := range events {
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateEventJSON(raw); err != nil {
			t.Fatalf("event fails the schema: %v\n%s", err, raw)
		}
	}
}

// TestWideEventOutcomePaths pins the per-path event semantics on every
// front door: computed answers carry their access-cost counters, cache
// hits carry cache=hit and no access costs, validation rejects carry no
// cache field, refusals carry their outcome — and the serve_* request
// metrics count the same requests on the cluster path as on the engine.
func TestWideEventOutcomePaths(t *testing.T) {
	for _, fd := range frontDoors {
		t.Run(fd.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			logger := obs.NewLogger(obs.LoggerOptions{})
			tbl := anchoredTable(64)
			do := fd.open(tbl, reg, logger, nil)
			computed := "off" // the coordinator caches nothing
			if fd.engine {
				computed = "miss"
			}

			quant := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
			if resp := do(quant); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if resp := do(quant); resp.CacheHit != fd.engine {
				t.Fatalf("second identical request: cache hit = %v", resp.CacheHit)
			}
			gks := serve.NewSnapshot(tbl).GroupKeys()
			cmp := serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByQuery}
			if resp := do(cmp); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: -1, Algorithm: topk.TA})
			do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA, Deadline: time.Nanosecond})

			events := logger.Ring().Recent() // newest first
			if len(events) != 5 {
				t.Fatalf("emitted %d events, want 5", len(events))
			}
			expired, reject, compared, repeat, miss := events[0], events[1], events[2], events[3], events[4]

			if miss.Cache != computed || miss.Outcome != "ok" || miss.SortedAccesses == 0 {
				t.Fatalf("computed quantify event wrong: %+v", miss)
			}
			if miss.QueueWaitNS != 0 {
				t.Fatalf("direct Do carried a queue wait: %+v", miss)
			}
			if fd.engine {
				if repeat.Cache != "hit" || repeat.Outcome != "ok" {
					t.Fatalf("cache-hit event wrong: %+v", repeat)
				}
				if repeat.SortedAccesses != 0 || repeat.RandomAccesses != 0 || repeat.Rounds != 0 {
					t.Fatalf("cache hit spent no accesses but reported some: %+v", repeat)
				}
			} else if repeat.Cache != "off" || repeat.Outcome != "ok" || repeat.SortedAccesses != miss.SortedAccesses {
				t.Fatalf("repeated coordinator event wrong: %+v", repeat)
			}
			if compared.Problem != "compare" || compared.R1 != gks[0] || compared.R2 != gks[1] || compared.By != compare.ByQuery.String() {
				t.Fatalf("compare event lost its operands: %+v", compared)
			}
			if compared.CompareAccesses == 0 {
				t.Fatalf("compare event lost its access count: %+v", compared)
			}
			if reject.Outcome != "error" || reject.Level != "error" || reject.Cache != "" || reject.Err == "" {
				t.Fatalf("validation-reject event wrong: %+v", reject)
			}
			if expired.Outcome != "deadline" || expired.Level != "warn" || expired.Cache != computed {
				t.Fatalf("expired-deadline event wrong: %+v", expired)
			}

			s := reg.Snapshot()
			for _, c := range []struct {
				problem string
				n       uint64
			}{{"quantify", 3}, {"compare", 1}} {
				if got := s.Counters[obs.Name("serve_requests_total", "problem", c.problem)]; got != c.n {
					t.Fatalf("serve_requests_total{problem=%s} = %d, want %d", c.problem, got, c.n)
				}
				if got := s.Histograms[obs.Name("serve_request_seconds", "problem", c.problem)].Count; got != c.n {
					t.Fatalf("serve_request_seconds{problem=%s} holds %d samples, want %d", c.problem, got, c.n)
				}
			}
			if got := s.CounterSum("serve_errors_total"); got != 2 {
				t.Fatalf("serve_errors_total = %d, want 2 (the reject and the expired deadline)", got)
			}
		})
	}

	// Shed path: a drain-mode engine (negative MaxInflight) sheds every
	// compute request.
	shedLogger := obs.NewLogger(obs.LoggerOptions{})
	drain := serve.NewEngine(anchoredSnapshot(64), serve.Options{Log: shedLogger, MaxInflight: -1, CacheSize: -1})
	quant := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	if resp := drain.Do(quant); !errors.Is(resp.Err, serve.ErrOverloaded) {
		t.Fatalf("drain engine served a compute request: %v", resp.Err)
	}
	shed := shedLogger.Ring().Recent()[0]
	if shed.Outcome != "shed" || shed.Level != "warn" || shed.Cache != "off" {
		t.Fatalf("shed event wrong: %+v", shed)
	}
}

// TestBatchEventsCarryQueueWait pins the DoBatch hand-off: batch events
// carry the queue wait their trace recorded.
func TestBatchEventsCarryQueueWait(t *testing.T) {
	logger := obs.NewLogger(obs.LoggerOptions{})
	snap := anchoredSnapshot(65)
	eng := serve.NewEngine(snap, serve.Options{
		Workers: 2,
		Tracer:  obs.NewTracer(16),
		Log:     logger,
		Obs:     obs.NewRegistry(),
	})
	reqs := make([]serve.Request, 8)
	for i := range reqs {
		reqs[i] = serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 1 + i%3, Algorithm: topk.TA}
	}
	for _, resp := range eng.DoBatch(reqs) {
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	events := logger.Ring().Recent()
	if len(events) != len(reqs) {
		t.Fatalf("emitted %d events for %d requests", len(events), len(reqs))
	}
	for _, e := range events {
		if e.TraceID == 0 {
			t.Fatalf("batch event lost its trace ID: %+v", e)
		}
	}
}

// TestLoggingPreservesTelemetryInvariants re-checks the pinned PR-3
// invariants with logging and SLO wired in, on every front door:
// validation rejects still get no latency sample and no request count
// (but do count as errors), and every refusal lands exactly one. The SLO
// checks run where there is a monitor — the engine.
func TestLoggingPreservesTelemetryInvariants(t *testing.T) {
	for _, fd := range frontDoors {
		t.Run(fd.name, func(t *testing.T) {
			clock := &fakeClock{now: time.Date(2026, 2, 3, 12, 0, 0, 0, time.UTC)}
			var slo *obs.SLOMonitor
			if fd.engine {
				slo = obs.NewSLOMonitor([]obs.Objective{{Name: "errors", Target: 0.99}}, obs.SLOOptions{Clock: clock.Now})
			}
			reg := obs.NewRegistry()
			do := fd.open(anchoredTable(66), reg, obs.NewLogger(obs.LoggerOptions{}), slo)

			do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 0, Algorithm: topk.TA}) // reject
			s := reg.Snapshot()
			if got := s.CounterSum("serve_requests_total"); got != 0 {
				t.Fatalf("validation reject counted as a request: %d", got)
			}
			if got := s.CounterSum("serve_errors_total"); got != 1 {
				t.Fatalf("validation reject must count one error, got %d", got)
			}
			if h, ok := s.MergeHistograms("serve_request_seconds"); ok && h.Count != 0 {
				t.Fatalf("validation reject landed a latency sample: %d", h.Count)
			}
			if st := slo.Status(); len(st.Objectives) > 0 && st.Objectives[0].Good+st.Objectives[0].Bad != 0 {
				t.Fatalf("validation reject reached the SLO monitor: %+v", st.Objectives[0])
			}

			do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA, Deadline: time.Nanosecond})
			s = reg.Snapshot()
			if h, ok := s.MergeHistograms("serve_request_seconds"); !ok || h.Count != 1 {
				t.Fatal("refused request must land exactly one latency sample")
			}
			if fd.engine {
				if st := slo.Status(); st.Objectives[0].Bad != 1 {
					t.Fatalf("refusal must land one bad SLO observation: %+v", st.Objectives[0])
				}
			}

			if resp := do(serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if got := reg.Snapshot().CounterSum("serve_requests_total"); got != 2 {
				t.Fatalf("serve_requests_total = %d, want 2", got)
			}
			if fd.engine {
				if st := slo.Status(); st.Objectives[0].Good != 1 {
					t.Fatalf("success must land one good SLO observation: %+v", st.Objectives[0])
				}
			}
		})
	}
}
