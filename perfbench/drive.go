package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// origin is the zero of every timestamp the benchmark records; now reads
// the monotonic clock relative to it.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// rec is one executed op. Times are ns since origin: sched is the
// scheduled arrival (the closed loop has none and uses start), disp when
// the generator handed it to the worker pool, start when a worker picked
// it up, callStart/callEnd around the call into the program, end when
// the worker had recorded the outcome.
type rec struct {
	op                      int32
	traced                  bool
	sched, disp, start      int64
	callStart, callEnd, end int64
	failed                  bool
	hit                     bool
	gen                     uint64
	stats                   topk.Stats
	accesses                int
	results                 int
	tally                   *rpcTally       // cluster workloads only
	resp                    *serve.Response // kept for the oracle
}

// runner executes ops against one world and keeps what the oracle needs.
type runner struct {
	w *world

	// Engine workloads: the snapshots the oracle may replay against, by
	// generation — the initial one and every keepEvery-th one a write
	// published. Keeping every snapshot would hold tens of table copies.
	keepEvery int
	writes    atomic.Int64
	snapMu    sync.Mutex
	snaps     map[uint64]*serve.Snapshot
}

func newRunner(w *world, keepEvery int) *runner {
	r := &runner{w: w, keepEvery: max(keepEvery, 1), snaps: map[uint64]*serve.Snapshot{}}
	if w.snap != nil {
		r.snaps[w.snap.Gen()] = w.snap
	}
	return r
}

func (rn *runner) kept(gen uint64) bool {
	rn.snapMu.Lock()
	defer rn.snapMu.Unlock()
	_, ok := rn.snaps[gen]
	return ok
}

// exec runs ops[i] and fills r's outcome fields. A write is a seeded
// Engine.Refresh. keep asks for a read's response to be kept for the
// oracle; on an engine it is kept only when its generation's snapshot
// is.
func (rn *runner) exec(ops []op, i int, r *rec, keep bool) {
	o := &ops[i]
	r.op = int32(i)
	if o.isWrite() {
		r.callStart = now()
		snap, err := rn.w.eng.RefreshCtx(context.Background(), func(t *core.Table) { applyEdits(t, o.edits) })
		r.callEnd = now()
		if err != nil {
			r.failed = true
			return
		}
		r.gen = snap.Gen()
		if rn.writes.Add(1)%int64(rn.keepEvery) == 0 {
			rn.snapMu.Lock()
			rn.snaps[snap.Gen()] = snap
			rn.snapMu.Unlock()
		}
		return
	}
	ctx := context.Background()
	if rn.w.coord != nil {
		r.tally = &rpcTally{traced: r.traced}
		ctx = withTally(ctx, r.tally)
	}
	r.callStart = now()
	resp := rn.w.t.DoCtx(ctx, o.req)
	r.callEnd = now()
	r.failed = resp.Err != nil
	r.hit = resp.CacheHit
	r.gen = resp.Gen
	r.stats = resp.Stats
	r.results = len(resp.Results)
	if resp.Comparison != nil {
		r.accesses = resp.Comparison.Accesses
	}
	if keep && (rn.w.eng == nil || rn.kept(resp.Gen)) {
		r.resp = &resp
	}
}

// applyEdits sets each edited cell; cells come from the table itself, so
// every group key resolves.
func applyEdits(t *core.Table, edits []edit) {
	for _, e := range edits {
		g, ok := t.GroupByKey(e.cell.GroupKey)
		if !ok {
			continue
		}
		t.Set(g, e.cell.Query, e.cell.Location, e.v)
	}
}

// genHealth is how well the open-loop generator kept its schedule.
type genHealth struct {
	busy time.Duration // generator time not spent sleeping
	wall time.Duration
}

// openLoop offers ops on their schedule: one dispatcher sleeps until
// each arrival is due and hands it to a pool of `workers` goroutines, so
// at most `workers` calls are in flight. A late dispatcher or a busy
// pool delays the start of later ops but never their scheduled time, so
// stalls show in the latency. traceFrom is the index of the first op
// recorded with tracing on (len(ops) for none); every sampleN-th op's
// response is kept for the oracle.
func (rn *runner) openLoop(ops []op, workers, traceFrom, sampleN int) ([]rec, genHealth) {
	recs := make([]rec, len(ops))
	// Buffered to len(ops) so the dispatcher never blocks on a busy
	// pool; waiting work queues here and shows as queue wait.
	jobs := make(chan int, len(ops))
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := &recs[i]
				r.start = now()
				rn.exec(ops, i, r, i%sampleN == 0)
				r.end = now()
			}
		}()
	}
	var h genHealth
	base := now()
	for i := range ops {
		due := base + int64(ops[i].at)
		if d := due - now(); d > 0 {
			sleep(time.Duration(d))
		}
		t := now()
		recs[i].sched = due
		recs[i].disp = t
		recs[i].traced = i >= traceFrom
		jobs <- i
		h.busy += time.Duration(now() - t)
	}
	close(jobs)
	wg.Wait()
	h.wall = time.Duration(now() - base)
	return recs, h
}

// closedKeep sets which closed-loop reads a client keeps for the oracle.
const closedKeep = 64

// closedResult is a closed-loop phase: how many ops completed and
// failed, how long it ran, and a sample of records for the oracle. Hits
// complete in microseconds, so the phase keeps counts, not every record.
type closedResult struct {
	completed, failed int
	elapsed           time.Duration
	sampled           []rec
}

// closedLoop runs `workers` clients that each issue the next read, from
// reads[from] on, as soon as their previous op completes, for dur, and
// returns where the next phase should continue the read stream. Writes
// (hot-churn) keep their fixed-rate schedule: the first client free
// after a write falls due runs it, so writes also count against the
// in-flight limit. Each client keeps, for the oracle, its first
// closedKeep reads and every closedKeep-th after.
func (rn *runner) closedLoop(reads []op, from int, writes []op, workers int, dur time.Duration, traced bool) (closedResult, int) {
	var (
		next     atomic.Int64
		nextW    atomic.Int64
		mu       sync.Mutex
		res      closedResult
		wg       sync.WaitGroup
		base     = now()
		deadline = base + int64(dur)
	)
	next.Store(int64(from))
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			var (
				mine            []rec
				done, failed, n int
			)
			for t := now(); t < deadline; t = now() {
				r := rec{sched: t, disp: t, start: t, traced: traced}
				if w := nextW.Load(); int(w) < len(writes) && base+int64(writes[w].at) <= t && nextW.CompareAndSwap(w, w+1) {
					rn.exec(writes, int(w), &r, false)
				} else {
					i := int(next.Add(1)-1) % len(reads)
					n++
					rn.exec(reads, i, &r, n <= closedKeep || n%closedKeep == 0)
				}
				r.end = now()
				done++
				if r.failed {
					failed++
				}
				if r.resp != nil {
					mine = append(mine, r)
				}
			}
			mu.Lock()
			res.completed += done
			res.failed += failed
			res.sampled = append(res.sampled, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Duration(now() - base)
	return res, int(next.Load())
}
