//go:build faultinject

package serve_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/faultinject"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// The chaos suite only builds with -tags faultinject (scripts/check.sh
// runs it under -race). Each test arms failpoints from the catalog in
// internal/faultinject, drives the engine through the fault, and then
// asserts the engine converges back to correct answers once the fault
// clears. Handlers block on channels rather than sleeping, so every
// ordering the tests depend on is enforced, not raced.

// waitHits spins until the named failpoint has fired at least n times.
func waitHits(t *testing.T, name string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for faultinject.Hits(name) < n {
		if time.Now().After(deadline) {
			t.Fatalf("failpoint %s never reached %d hits", name, n)
		}
		runtime.Gosched()
	}
}

// TestChaosSlowEvaluatorHitsDeadline blocks a top-k run at its first
// round checkpoint until the request's deadline has provably expired,
// then releases it: the run must stop at that same checkpoint with the
// typed deadline error, and the deadline counter must tick.
func TestChaosSlowEvaluatorHitsDeadline(t *testing.T) {
	defer faultinject.Reset()
	rng := stats.NewRNG(71)
	snap := serve.NewSnapshot(randomTable(rng, 5, 4, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{CacheSize: -1})

	release := make(chan struct{})
	faultinject.Set(faultinject.SlowEvaluator, func() error { <-release; return nil })

	const deadline = 10 * time.Millisecond
	done := make(chan serve.Response, 1)
	go func() {
		done <- eng.DoCtx(context.Background(), serve.Request{
			Problem: serve.Quantify, Dim: compare.ByGroup, K: 2,
			Algorithm: topk.TA, Deadline: deadline,
		})
	}()
	waitHits(t, faultinject.SlowEvaluator, 1)
	// The deadline timer started before the gate; once this sleep ends it
	// has expired for sure, so the released checkpoint must observe it.
	time.Sleep(2 * deadline)
	close(release)

	resp := <-done
	if !errors.Is(resp.Err, serve.ErrDeadlineExceeded) || !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("slow run: err = %v, want ErrDeadlineExceeded", resp.Err)
	}
	if got := eng.Registry().Counter("serve_deadline_exceeded_total").Value(); got != 1 {
		t.Fatalf("serve_deadline_exceeded_total = %d, want 1", got)
	}

	// Fault cleared: the same request completes and matches a fault-free
	// reference.
	faultinject.Clear(faultinject.SlowEvaluator)
	req := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	want := fingerprint(serve.NewEngine(snap, serve.Options{CacheSize: -1}).Do(req))
	if got := fingerprint(eng.Do(req)); got != want {
		t.Fatalf("after fault cleared: got %s, want %s", got, want)
	}
}

// TestChaosCancelMidQuery cancels a request while it is blocked inside
// an algorithm round: the run must return the typed cancellation error,
// and the canceled run must not report access stats (covered by the
// engine's histograms staying finished-work-only).
func TestChaosCancelMidQuery(t *testing.T) {
	defer faultinject.Reset()
	rng := stats.NewRNG(72)
	snap := serve.NewSnapshot(randomTable(rng, 5, 4, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{CacheSize: -1})

	release := make(chan struct{})
	faultinject.Set(faultinject.SlowEvaluator, func() error { <-release; return nil })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan serve.Response, 1)
	go func() {
		done <- eng.DoCtx(ctx, serve.Request{
			Problem: serve.Quantify, Dim: compare.ByQuery, K: 2, Algorithm: topk.NRA,
		})
	}()
	waitHits(t, faultinject.SlowEvaluator, 1)
	cancel()
	close(release)
	resp := <-done
	if !errors.Is(resp.Err, serve.ErrCanceled) || !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want ErrCanceled", resp.Err)
	}
}

// TestChaosPanicIsolation arms the measure failpoint to panic on every
// execution: a whole batch must come back with one *InternalError per
// request — no dead workers, no lost responses — and after the fault
// clears the identical batch must produce correct answers.
func TestChaosPanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	rng := stats.NewRNG(73)
	snap := serve.NewSnapshot(randomTable(rng, 6, 4, 4, 0.1))
	eng := serve.NewEngine(snap, serve.Options{Workers: 4, CacheSize: -1})
	reqs := battery(snap)

	faultinject.Set(faultinject.PanicMeasure, func() error { panic("measure exploded") })
	out := eng.DoBatch(reqs)
	if len(out) != len(reqs) {
		t.Fatalf("poisoned batch returned %d/%d responses", len(out), len(reqs))
	}
	for i, resp := range out {
		if !errors.Is(resp.Err, serve.ErrInternal) {
			t.Fatalf("response %d: err = %v, want ErrInternal", i, resp.Err)
		}
		var ie *serve.InternalError
		if !errors.As(resp.Err, &ie) || len(ie.Stack) == 0 {
			t.Fatalf("response %d: recovered panic lost its stack", i)
		}
	}
	if got := eng.Registry().Counter("serve_panics_recovered_total").Value(); got != uint64(len(reqs)) {
		t.Fatalf("serve_panics_recovered_total = %d, want %d", got, len(reqs))
	}

	faultinject.Clear(faultinject.PanicMeasure)
	ref := serve.NewEngine(snap, serve.Options{Workers: 1, CacheSize: -1})
	for i, resp := range eng.DoBatch(reqs) {
		if resp.Err != nil {
			t.Fatalf("after fault cleared, response %d: %v", i, resp.Err)
		}
		if fingerprint(resp) != fingerprint(ref.Do(reqs[i])) {
			t.Fatalf("after fault cleared, response %d diverged from reference", i)
		}
	}
}

// TestChaosOverloadServesCacheHits holds the admission gate saturated
// with a blocked slow query and checks the overload contract: cached
// answers keep flowing (the cache probe precedes the gate), fresh
// compute sheds with ErrOverloaded, and /readyz-via-Engine.Ready reports
// not-ready until the gate drains.
func TestChaosOverloadServesCacheHits(t *testing.T) {
	defer faultinject.Reset()
	rng := stats.NewRNG(74)
	snap := serve.NewSnapshot(randomTable(rng, 6, 4, 4, 0))
	eng := serve.NewEngine(snap, serve.Options{MaxInflight: 1, MaxQueue: -1})

	hot := serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.TA}
	warm := eng.Do(hot)
	if warm.Err != nil {
		t.Fatalf("warmup: %v", warm.Err)
	}

	release := make(chan struct{})
	faultinject.Set(faultinject.SlowEvaluator, func() error { <-release; return nil })
	slowDone := make(chan serve.Response, 1)
	go func() {
		slowDone <- eng.Do(serve.Request{
			Problem: serve.Quantify, Dim: compare.ByQuery, K: 3, Algorithm: topk.NRA,
		})
	}()
	waitHits(t, faultinject.SlowEvaluator, 1) // the slow query now holds the gate

	if resp := eng.Do(hot); !resp.CacheHit || resp.Err != nil {
		t.Fatalf("cached request under overload: hit=%v err=%v, want a free hit", resp.CacheHit, resp.Err)
	}
	cold := serve.Request{Problem: serve.Quantify, Dim: compare.ByLocation, K: 1, Algorithm: topk.FA}
	if resp := eng.Do(cold); !errors.Is(resp.Err, serve.ErrOverloaded) {
		t.Fatalf("fresh compute under overload: err = %v, want ErrOverloaded", resp.Err)
	}
	if err := eng.Ready(); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("Ready under overload = %v, want ErrOverloaded", err)
	}
	if got := eng.Registry().Counter("serve_shed_total").Value(); got != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", got)
	}

	close(release)
	if resp := <-slowDone; resp.Err != nil {
		t.Fatalf("slow query after release: %v", resp.Err)
	}
	if err := eng.Ready(); err != nil {
		t.Fatalf("Ready after drain = %v, want nil", err)
	}
	if resp := eng.Do(cold); resp.Err != nil {
		t.Fatalf("cold request after drain: %v", resp.Err)
	}
}

// TestChaosQueueDelayObservesCancellation parks a request between its
// cache probe and the admission gate, cancels it there, and checks it is
// refused with the typed error without ever reaching the algorithms.
func TestChaosQueueDelayObservesCancellation(t *testing.T) {
	defer faultinject.Reset()
	rng := stats.NewRNG(75)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{CacheSize: -1, MaxInflight: 2})

	release := make(chan struct{})
	faultinject.Set(faultinject.QueueDelay, func() error { <-release; return nil })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan serve.Response, 1)
	go func() {
		done <- eng.DoCtx(ctx, serve.Request{
			Problem: serve.Quantify, Dim: compare.ByGroup, K: 1, Algorithm: topk.TA,
		})
	}()
	waitHits(t, faultinject.QueueDelay, 1)
	cancel()
	close(release)
	resp := <-done
	if !errors.Is(resp.Err, serve.ErrCanceled) {
		t.Fatalf("queue-delayed request: err = %v, want ErrCanceled", resp.Err)
	}
	if hits := faultinject.Hits(faultinject.SlowEvaluator); hits != 0 {
		t.Fatalf("canceled request still reached the algorithms (%d round checkpoints)", hits)
	}
}

// TestChaosRefreshFailRetriesThenRecovers fails the first two snapshot
// builds: the retry policy absorbs them without real sleeps, the retry
// counter ticks, and the published snapshot carries the update.
func TestChaosRefreshFailRetriesThenRecovers(t *testing.T) {
	defer faultinject.Reset()
	rng := stats.NewRNG(76)
	snap := serve.NewSnapshot(randomTable(rng, 4, 3, 3, 0))
	eng := serve.NewEngine(snap, serve.Options{
		CacheSize: -1,
		Retry:     serve.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}},
	})

	var fails atomic.Int64
	faultinject.Set(faultinject.RefreshFail, func() error {
		if fails.Add(1) <= 2 {
			return fmt.Errorf("store unavailable (injected %d)", fails.Load())
		}
		return nil
	})
	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	next, err := eng.RefreshCtx(context.Background(), func(tbl *core.Table) {
		tbl.Set(g, "q00", "l00", 0.25)
	})
	if err != nil {
		t.Fatalf("RefreshCtx: %v", err)
	}
	if next.Gen() <= snap.Gen() {
		t.Fatalf("refresh did not advance the generation: %d -> %d", snap.Gen(), next.Gen())
	}
	if got := eng.Registry().Counter("refresh_retries_total").Value(); got != 2 {
		t.Fatalf("refresh_retries_total = %d, want 2", got)
	}
	if got := faultinject.Hits(faultinject.RefreshFail); got != 3 {
		t.Fatalf("RefreshFail hits = %d, want 3 (two failures + the success probe)", got)
	}
}

// TestChaosConvergenceAfterFaultsClear is the end-to-end recovery drill:
// every failpoint in the catalog is armed at once over a gated,
// cache-churning engine while batches and refreshes run; after Reset the
// engine must serve exactly the answers a fault-free engine gives for
// the same snapshot — including a refreshed anchor group whose cells all
// carry 0.94, the Figure 5 worked exposure value, so recovery is checked
// against a paper-anchored table, not just random data.
func TestChaosConvergenceAfterFaultsClear(t *testing.T) {
	defer faultinject.Reset()
	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	rng := stats.NewRNG(77)
	snap := serve.NewSnapshot(randomTable(rng, 6, 4, 4, 0.1))
	const maxInflight, maxQueue = 2, 2
	eng := serve.NewEngine(snap, serve.Options{
		Workers:     4,
		CacheSize:   4, // constant eviction churn across the battery
		MaxInflight: maxInflight,
		MaxQueue:    maxQueue,
		Retry:       serve.RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}},
	})
	reqs := battery(snap)

	var slowHits, panicHits, refreshHits, delayHits atomic.Int64
	faultinject.Set(faultinject.SlowEvaluator, func() error {
		if slowHits.Add(1)%64 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})
	faultinject.Set(faultinject.PanicMeasure, func() error {
		if panicHits.Add(1)%3 == 0 {
			panic("injected measure crash")
		}
		return nil
	})
	faultinject.Set(faultinject.RefreshFail, func() error {
		if refreshHits.Add(1)%2 == 1 {
			return errors.New("injected refresh failure")
		}
		return nil
	})
	faultinject.Set(faultinject.QueueDelay, func() error {
		if delayHits.Add(1)%5 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})

	g := core.NewGroup(core.Predicate{Attr: "cohort", Value: "g00"})
	for round := 0; round < rounds; round++ {
		// Chaos phase: failures are expected, but only typed ones, and
		// never a lost response.
		out := eng.DoBatch(reqs)
		if len(out) != len(reqs) {
			t.Fatalf("round %d: %d/%d responses", round, len(out), len(reqs))
		}
		for i, resp := range out {
			if resp.Err == nil {
				continue
			}
			switch {
			case errors.Is(resp.Err, serve.ErrInternal),
				errors.Is(resp.Err, serve.ErrOverloaded),
				errors.Is(resp.Err, serve.ErrDeadlineExceeded),
				errors.Is(resp.Err, serve.ErrCanceled):
			default:
				t.Fatalf("round %d response %d: untyped failure %v", round, i, resp.Err)
			}
		}
		if _, err := eng.RefreshCtx(context.Background(), func(tbl *core.Table) {
			tbl.Set(g, "q00", "l00", float64(round)/10)
		}); err != nil {
			t.Fatalf("round %d refresh never recovered: %v", round, err)
		}
	}
	for _, fp := range []string{
		faultinject.SlowEvaluator, faultinject.PanicMeasure,
		faultinject.RefreshFail, faultinject.QueueDelay,
	} {
		if faultinject.Hits(fp) == 0 {
			t.Fatalf("failpoint %s never fired during the chaos phase", fp)
		}
	}

	// Every chaos request has returned, so the gate must be empty: a
	// waiter still queued or weight still held is a leaked grant.
	if queued, held := serve.GateLoad(eng); queued != 0 || held != 0 {
		t.Fatalf("admission gate not drained after the chaos phase: %d queued, %d weight held", queued, held)
	}

	// Faults clear; pin the anchor table: the g00 row holds the paper's
	// Figure 5 worked exposure value everywhere.
	faultinject.Reset()
	anchored, err := eng.RefreshCtx(context.Background(), func(tbl *core.Table) {
		for _, q := range tbl.Queries() {
			for _, l := range tbl.Locations() {
				tbl.Set(g, q, l, 0.94)
			}
		}
	})
	if err != nil {
		t.Fatalf("anchor refresh after reset: %v", err)
	}

	// The recovery battery runs at a concurrency the gate always admits:
	// one request holding capacity plus at most maxQueue waiters. A
	// 4-wide DoBatch can legitimately shed here — one request holding a
	// unit, two queued behind a weight-2 naive scan, a fourth arriving
	// to a full queue — and a correct shed is not a recovery failure.
	ref := serve.NewEngine(anchored, serve.Options{Workers: 1, CacheSize: -1})
	recovered := make([]serve.Response, len(reqs))
	core.RunIndexed(len(reqs), 1+maxQueue, func(i int) { recovered[i] = eng.Do(reqs[i]) })
	for i, resp := range recovered {
		if resp.Err != nil {
			t.Fatalf("converged engine still failing request %d: %v", i, resp.Err)
		}
		if resp.Gen != anchored.Gen() {
			t.Fatalf("request %d served from stale generation %d", i, resp.Gen)
		}
		if fingerprint(resp) != fingerprint(ref.Do(reqs[i])) {
			t.Fatalf("request %d diverged from the fault-free reference after recovery", i)
		}
	}
	if err := eng.Ready(); err != nil {
		t.Fatalf("Ready after convergence = %v, want nil", err)
	}
}
