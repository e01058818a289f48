// Command perfbench is the repository benchmark. A run sets the system
// up from a fresh crawl (several times, for setup_s), derives one of
// three workloads' request stream from --seed, and offers it in-process
// through the public entry points: after an untimed warm-up, a closed
// loop with one client per CPU (capacity), then an open loop at a fixed
// Poisson rate with at most one request in flight per CPU (latency from
// each request's scheduled arrival). Sampled answers are then checked
// against a reference, and every metric is printed by name, unit and
// sample count.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones. With --trace 1 they are the per-layer ones;
// the run also records spans around every call into a layer, prints
// each layer's self time and the tracing overhead (the untraced first
// half of each phase against the traced second half), and writes the
// spans under .bench_build/traces. The command exits 1 when any answer
// is wrong or any request fails.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload engine-miss --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// setUps is how many times a run builds the system from a fresh crawl;
// setup_s is their median.
const setUps = 3

// oracleSamples bounds how many read answers a run checks.
const oracleSamples = 200

// A run times refreshes after its load phases, for refresh_p50_ms, until
// it has done at least minQuietRefreshes and spent at least
// quietRefreshTime: one engine refresh takes about 50 ms and varies by a
// third from one to the next, so the engine gets about 20 of them, while
// the cluster's (every partition in turn) takes about 400 ms and gets
// the minimum.
const (
	minQuietRefreshes = 5
	quietRefreshTime  = time.Second
)

// closedReads is the length of the read stream the warm-up and the
// closed loop replay; clients cycle through it if they complete more.
const closedReads = 30000

// warmUp is how long the untimed closed-loop warm-up runs.
const warmUp = 2 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "engine-miss, hot-churn or cluster-p4")
		seed     = fs.Uint64("seed", 1, "seed of the offered stream")
		seconds  = fs.Int("seconds", 30, "measured seconds, shared between the closed and the open loop")
		trace    = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload engine-miss|hot-churn|cluster-p4, --seconds >= 1, --trace 0|1 (got %q, %d, %d)\n", *workload, *seconds, *trace)
		return 2
	}
	res, err := runWorkload(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "%s seed %d: attempted %d, failed %d, error_rate %.6f\n", sp.name, *seed, res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	res.printTable(stderr)
	if err := res.printJSON(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// openPhase is the open loop's records with the counters around it.
type openPhase struct {
	recs   []rec
	health genHealth
	m0, m1 runtime.MemStats
	r0, r1 obs.Snapshot
}

func (p *openPhase) counter(name string) float64 {
	return float64(p.r1.CounterSum(name) - p.r0.CounterSum(name))
}

// maxKeptSnapshots bounds how many refreshed snapshots hot-churn keeps
// for the oracle.
const maxKeptSnapshots = 8

func runWorkload(sp spec, seed uint64, dur time.Duration, traced bool, log io.Writer) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	var tr *spanLog
	if traced {
		tr = &spanLog{}
	}
	w, setups, err := setUpRepeatedly(sp, tr)
	if err != nil {
		return nil, err
	}
	heap := liveHeap()

	// The stream's universe and the oracle's reference come after
	// set-up, outside every timed phase. The reference is a cache-less
	// engine over the served snapshot; the cluster has none, so it gets
	// its own, built only while needed so that its copy of the crawl
	// does not sit in the live heap the timed phases collect.
	reference := func() *serve.Engine {
		snap := w.snap
		if snap == nil {
			snap = serve.NewSnapshotWithRankings(w.tbl, nil, w.crawl)
		}
		return serve.NewEngine(snap, serve.Options{CacheSize: -1})
	}
	u, err := buildUniverse(w.tbl, reference(), seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	openDur := time.Duration(float64(dur) * sp.openShare)
	closedDur := dur - openDur
	ops, reads, writes := streams(sp, u, seed, openDur, closedDur, closedReads)
	nWrites := len(writes)
	for i := range ops {
		if ops[i].isWrite() {
			nWrites++
		}
	}
	rn := newRunner(w, (nWrites+maxKeptSnapshots-1)/maxKeptSnapshots)

	// Warm up untimed: fill hot-churn's cache with its hot set, then run
	// the closed loop briefly, so the heap, the GC pacer and the
	// coordinator's hedge trackers reach their loaded state before the
	// closed loop is measured.
	hot := drawHot(newDrawer(u, seed, 1), sp.hotSet)
	for i := range hot {
		var r rec
		rn.exec(hot, i, &r, false)
	}
	_, next := rn.closedLoop(reads, 0, nil, workers, warmUp, false)

	var closed, closedTraced closedResult
	if traced {
		closed, next = rn.closedLoop(reads, next, writes, workers, closedDur/2, false)
		closedTraced, _ = rn.closedLoop(reads, next, writes, workers, closedDur/2, true)
	} else {
		closed, _ = rn.closedLoop(reads, next, writes, workers, closedDur, false)
	}

	traceFrom := len(ops)
	if traced {
		traceFrom = sort.Search(len(ops), func(i int) bool { return ops[i].at >= openDur/2 })
	}
	// The closed loop leaves the collector mid-cycle with a grown heap;
	// start the open loop from a collected heap so its first second does
	// not pay for the closed loop's garbage.
	runtime.GC()
	var open openPhase
	open.r0 = w.reg.Snapshot()
	runtime.ReadMemStats(&open.m0)
	open.recs, open.health = rn.openLoop(ops, workers, traceFrom, max(1, len(ops)/oracleSamples))
	runtime.ReadMemStats(&open.m1)
	open.r1 = w.reg.Snapshot()

	loaded := refreshTimes(open.recs, ops)
	quiet := quietRefresh(w, u, seed)

	// The oracle runs last, so it adds nothing to the timed phases.
	refs := engineRefs(rn.snaps)
	if w.coord != nil {
		ref := reference()
		refs = func(uint64) *serve.Engine { return ref }
	}
	res := &result{
		attempted: len(open.recs) + closed.completed + closedTraced.completed,
		failed:    closed.failed + closedTraced.failed,
	}
	checked, err := runOracle(res, refs, w.coord != nil, ops, open.recs, reads, closed.sampled, closedTraced.sampled)
	if err != nil {
		fmt.Fprintln(log, "perfbench: oracle:", err)
	}
	fmt.Fprintf(log, "%s: oracle checked %d answers\n", sp.name, checked)
	res.correct = res.failed == 0 && err == nil && checked > 0

	if !traced {
		endToEnd(res, setups, heap, ops, open.recs, closed, quiet)
		return res, nil
	}
	perLayer(res, setups, &open, ops, quiet, loaded)
	rows, total, n := selfTimes(ops, open.recs)
	printSetupSelfTimes(log, tr.spans)
	printSelfTimes(log, rows, total, n)
	printOverhead(log, ops, open.recs, closed, closedTraced)
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.tsv", sp.name, seed)
	if err := writeSpans(path, tr.spans, ops, open.recs); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "spans written to %s\n", path)
	return res, nil
}

// setUpRepeatedly sets the system up setUps times, each from a fresh
// crawl, and keeps the last.
func setUpRepeatedly(sp spec, tr *spanLog) (*world, []setupTimes, error) {
	var (
		w      *world
		setups []setupTimes
	)
	for i := 0; i < setUps; i++ {
		w = nil // let the previous set-up be collected first
		runtime.GC()
		var err error
		if w, err = setUp(sp, tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, w.times)
	}
	return w, setups, nil
}

// runOracle verifies the kept answers of the open loop (ops, open) and
// of the closed-loop phases (reads, closed...), adds every mismatch and
// every failed open-loop request to res.failed, and returns how many
// answers it checked and the mismatches found.
func runOracle(res *result, refs refSource, exact bool, ops []op, open []rec, reads []op, closed ...[]rec) (int, error) {
	checked, _, err := verify(refs, ops, open, exact) // marks mismatches failed
	errs := []error{err}
	for _, recs := range closed {
		n, bad, err := verify(refs, reads, recs, exact)
		checked += n
		res.failed += bad
		errs = append(errs, err)
	}
	for i := range open {
		if open[i].failed {
			res.failed++
		}
	}
	return checked, errors.Join(errs...)
}

// buildUniverse collects the members a stream draws from. Mitigation
// targets are the (page, group) pairs of a seeded sample of pages on
// which every re-ranker answers, found by asking the reference engine.
func buildUniverse(tbl *core.Table, ref *serve.Engine, seed uint64) (*universe, error) {
	snap := ref.Snapshot()
	u := &universe{groups: snap.GroupKeys()}
	for _, q := range snap.Queries() {
		u.queries = append(u.queries, string(q))
	}
	for _, l := range snap.Locations() {
		u.locs = append(u.locs, string(l))
	}
	tbl.Range(func(t core.Triple, _ float64) { u.cells = append(u.cells, t) })
	sort.Slice(u.cells, func(i, j int) bool {
		a, b := u.cells[i], u.cells[j]
		if a.GroupKey != b.GroupKey {
			return a.GroupKey < b.GroupKey
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.Location < b.Location
	})
	pages := snap.Pages()
	rng := newDrawer(u, seed, 0).rng
	for _, pi := range rng.Perm(len(pages))[:min(len(pages), 60)] {
		pg := pages[pi]
		for _, g := range u.groups {
			ok := true
			for _, kind := range mitigate.Kinds() {
				req := serve.Request{Problem: serve.Mitigate, Mitigator: kind, Group: g, Query: pg[0], Location: pg[1]}
				if ref.DoCtx(context.Background(), req).Err != nil {
					ok = false
					break
				}
			}
			if ok {
				u.targets = append(u.targets, mitTarget{query: pg[0], loc: pg[1], group: g})
			}
		}
	}
	if len(u.groups) < 2 || len(u.queries) < 2 || len(u.locs) < 2 || len(u.targets) == 0 || len(u.cells) == 0 {
		return nil, fmt.Errorf("universe too small: %d groups, %d queries, %d locations, %d mitigation targets",
			len(u.groups), len(u.queries), len(u.locs), len(u.targets))
	}
	return u, nil
}

// refreshTimes returns the durations of the open loop's writes, which
// ran under load.
func refreshTimes(recs []rec, ops []op) []float64 {
	var out []float64
	for i := range recs {
		if r := &recs[i]; r.op >= 0 && ops[r.op].isWrite() {
			out = append(out, ms(r.callEnd-r.callStart))
		}
	}
	return out
}

// quietRefresh times refreshes with no load running: a seeded edit of
// existing cells published by Engine.Refresh or, on the cluster, by
// Node.Refresh of every partition in turn, each with edits to cells it
// owns; a cluster update is servable once its last partition is.
func quietRefresh(w *world, u *universe, seed uint64) []float64 {
	d := newDrawer(u, seed, 5)
	const cellsPerRefresh = 16
	refresh := func() {
		edits := d.write(cellsPerRefresh)
		w.eng.Refresh(func(t *core.Table) { applyEdits(t, edits) })
	}
	if w.coord != nil {
		n := w.coord.Partitions()
		owned := make([][]core.Triple, n)
		for _, c := range u.cells {
			p := cluster.Route(c.Query, c.Location, n)
			owned[p] = append(owned[p], c)
		}
		refresh = func() {
			for p := range owned {
				edits := make([]edit, cellsPerRefresh/n)
				for j := range edits {
					edits[j] = edit{cell: owned[p][d.rng.IntN(len(owned[p]))], v: d.rng.Float64()}
				}
				w.coord.Node(p).Refresh(func(t *core.Table) { applyEdits(t, edits) })
			}
		}
	}
	var out []float64
	runtime.GC()
	for spent := 0.0; len(out) < minQuietRefreshes || spent < quietRefreshTime.Seconds()*1000; spent += out[len(out)-1] {
		start := now()
		refresh()
		out = append(out, ms(now()-start))
	}
	return out
}

// readLatencies returns end-to-end latencies (ms) of the phase's reads
// that are untraced (traced == false) or traced; a failed read counts as
// infinitely slow, so it misses any latency limit.
func readLatencies(ops []op, recs []rec, traced bool) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		if r.op < 0 || ops[r.op].isWrite() || r.traced != traced {
			continue
		}
		v := ms(r.end - r.sched)
		if r.failed {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	return out
}

func throughput(c closedResult) float64 {
	return float64(c.completed-c.failed) / c.elapsed.Seconds()
}

// endToEnd reports the end-to-end metrics: set-up time, closed-loop
// capacity and live heap.
//
// The open loop's latency (p50, p90, p99) and refresh_p50_ms are
// printed but left out of the JSON line, because on a 2-vCPU host their
// run-to-run spread is wider than the 0.25 regression bound the
// benchmark may hold a metric to: over ten seeds, engine-miss p50 spread
// by about 0.3 of its median and refresh_p50_ms by 0.4 (one refresh
// varies by a third from the next, and by up to half from one process to
// the next), and p99 by 0.2 to 0.9 — a 30-second run holds too few
// congestion episodes for the tail to average out, cluster-p4 with about
// 150 samples least of all. The traced run reports them among its
// per-layer metrics as e2e.latency_p50_ms, e2e.latency_p99_ms and
// serve.refresh_p50_ms.
func endToEnd(res *result, setups []setupTimes, heap uint64, ops []op, open []rec, closed closedResult, quiet []float64) {
	var st []float64
	for _, s := range setups {
		st = append(st, secs(s.total))
	}
	lat := readLatencies(ops, open, false)
	res.add("setup_s", median(st), "s", len(st))
	res.add("throughput_rps", throughput(closed), "1/s", closed.completed)
	res.add("heap_live_mb", float64(heap)/(1<<20), "MB", 1)
	res.show("latency_p50_ms", quantile(lat, 0.50), "ms", len(lat))
	res.show("latency_p90_ms", quantile(lat, 0.90), "ms", len(lat))
	res.show("latency_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	res.show("refresh_p50_ms", median(quiet), "ms", len(quiet))
}

// perLayer reports the per-layer metrics: set-up stages (medians over
// the set-ups), the open loop's reads, the quiet refreshes, and the
// refreshes that ran under load (hot-churn's writes). Send times exist
// only for the traced half.
func perLayer(res *result, setups []setupTimes, open *openPhase, ops []op, quiet, loaded []float64) {
	med := func(f func(setupTimes) float64) float64 {
		var xs []float64
		for _, s := range setups {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	n := len(setups)
	res.add("marketplace.crawl_s", med(func(s setupTimes) float64 { return secs(s.crawl) }), "s", n)
	res.add("marketplace.crawl_alloc_mb", med(func(s setupTimes) float64 { return float64(s.crawlAlloc) / (1 << 20) }), "MB", n)
	res.add("core.evaluate_s", med(func(s setupTimes) float64 { return secs(s.evaluate) }), "s", n)
	res.add("core.evaluate_alloc_mb", med(func(s setupTimes) float64 { return float64(s.evalAlloc) / (1 << 20) }), "MB", n)
	res.add("core.cells", float64(setups[0].cells), "count", 1)
	res.add("serve.snapshot_build_s", med(func(s setupTimes) float64 { return secs(s.snapshot) }), "s", n)
	res.add("cluster.build_s", med(func(s setupTimes) float64 { return secs(s.cluster) }), "s", n)

	var (
		reads, hits      int
		service          []float64
		byAlgo           = map[topk.Algorithm]*algoAgg{}
		cmpSvc, mitSvc   []float64
		cmpAcc           int
		rpcs             [opKinds]int64
		lateness, waited []float64
	)
	for _, a := range topk.Algorithms() {
		byAlgo[a] = &algoAgg{}
	}
	for i := range open.recs {
		r := &open.recs[i]
		lateness = append(lateness, ms(r.disp-r.sched))
		waited = append(waited, ms(r.start-r.sched))
		o := &ops[r.op]
		if o.isWrite() {
			continue
		}
		reads++
		svc := ms(r.callEnd - r.callStart)
		service = append(service, svc)
		if r.tally != nil {
			for k := range rpcs {
				rpcs[k] += r.tally.n[k].Load()
			}
		}
		if r.hit {
			hits++
			continue
		}
		switch o.req.Problem {
		case serve.Quantify:
			a := byAlgo[o.req.Algorithm]
			a.service = append(a.service, svc)
			a.n++
			a.sorted += r.stats.SortedAccesses
			a.random += r.stats.RandomAccesses
			a.rounds += r.stats.Rounds
			a.results += r.results
		case serve.Compare:
			cmpSvc = append(cmpSvc, svc)
			cmpAcc += r.accesses
		default:
			mitSvc = append(mitSvc, svc)
		}
	}
	fr := float64(reads)
	res.add("serve.service_p50_ms", quantile(service, 0.5), "ms", len(service))
	res.add("serve.service_p99_ms", quantile(service, 0.99), "ms", len(service))
	res.add("serve.cache_hit_ratio", ratio(float64(hits), fr), "ratio", reads)
	res.add("serve.cache_evictions_per_req", ratio(open.counter("serve_cache_evictions_total"), fr), "count/req", reads)
	res.add("serve.shed", open.counter("serve_shed_total"), "count", reads)
	res.add("serve.deadline_exceeded", open.counter("serve_deadline_exceeded_total"), "count", reads)
	res.add("serve.refresh_p50_ms", median(quiet), "ms", len(quiet))
	res.add("serve.refresh_count", float64(len(loaded)), "count", len(loaded))
	res.add("serve.refresh_p99_ms", quantile(loaded, 0.99), "ms", len(loaded))
	for _, a := range topk.Algorithms() {
		g, name := byAlgo[a], "topk."+algoName(a)
		fn := float64(g.n)
		res.add(name+".service_p50_ms", quantile(g.service, 0.5), "ms", g.n)
		res.add(name+".sorted_per_req", ratio(float64(g.sorted), fn), "count/req", g.n)
		res.add(name+".random_per_req", ratio(float64(g.random), fn), "count/req", g.n)
		res.add(name+".rounds_per_req", ratio(float64(g.rounds), fn), "count/req", g.n)
		res.add(name+".accesses_per_result", ratio(float64(g.sorted+g.random), float64(g.results)), "ratio", g.n)
	}
	res.add("compare.service_p50_ms", quantile(cmpSvc, 0.5), "ms", len(cmpSvc))
	res.add("compare.accesses_per_req", ratio(float64(cmpAcc), float64(len(cmpSvc))), "count/req", len(cmpSvc))
	res.add("mitigate.service_p50_ms", quantile(mitSvc, 0.5), "ms", len(mitSvc))
	for k := range rpcs {
		res.add("cluster.rpcs_per_req."+opName(k), ratio(float64(rpcs[k]), fr), "count/req", reads)
	}
	sendMs, sends := rpcMillis(open.recs)
	for k := range sendMs {
		res.add("cluster.rpc_ms."+opName(k), sendMs[k], "ms", sends[k])
	}
	hedges := open.counter("cluster_hedges_total")
	res.add("cluster.hedges_per_req", ratio(hedges, fr), "count/req", reads)
	res.add("cluster.hedge_win_ratio", ratio(open.counter("cluster_hedge_wins_total"), hedges), "ratio", int(hedges))
	res.add("cluster.leg_retries", open.counter("cluster_leg_retries_total"), "count", reads)
	res.add("cluster.repins", open.counter("cluster_repins_total"), "count", reads)
	res.add("cluster.partials", open.counter("cluster_partial_results_total"), "count", reads)
	all := len(open.recs)
	res.add("runtime.alloc_kb_per_req", float64(open.m1.TotalAlloc-open.m0.TotalAlloc)/1024/float64(max(all, 1)), "KB/req", all)
	res.add("runtime.gc_count", float64(open.m1.NumGC-open.m0.NumGC), "count", all)
	untraced := readLatencies(ops, open.recs, false)
	res.add("e2e.latency_p50_ms", quantile(untraced, 0.50), "ms", len(untraced))
	res.add("e2e.latency_p99_ms", quantile(untraced, 0.99), "ms", len(untraced))
	res.add("bench.lateness_p50_ms", quantile(lateness, 0.5), "ms", len(lateness))
	res.add("bench.lateness_p99_ms", quantile(lateness, 0.99), "ms", len(lateness))
	res.add("bench.queue_wait_p99_ms", quantile(waited, 0.99), "ms", len(waited))
	res.add("bench.generator_busy_share", ratio(secs(open.health.busy), secs(open.health.wall)), "ratio", all)
}

type algoAgg struct {
	n, sorted, random, rounds, results int
	service                            []float64
}

// rpcMillis returns the median Send time per op over the traced
// requests, and the number of Sends timed.
func rpcMillis(recs []rec) ([opKinds]float64, [opKinds]int) {
	var per [opKinds][]float64
	for i := range recs {
		r := &recs[i]
		if r.tally == nil {
			continue
		}
		r.tally.mu.Lock()
		for _, s := range r.tally.sends {
			per[s.op] = append(per[s.op], ms(s.end-s.start))
		}
		r.tally.mu.Unlock()
	}
	var (
		out [opKinds]float64
		n   [opKinds]int
	)
	for k := range per {
		out[k], n[k] = median(per[k]), len(per[k])
	}
	return out, n
}

// printOverhead compares the untraced and traced halves of each phase:
// open-loop read latency and closed-loop throughput.
func printOverhead(w io.Writer, ops []op, open []rec, closed, closedTraced closedResult) {
	off, on := readLatencies(ops, open, false), readLatencies(ops, open, true)
	pct := func(on, off float64) float64 { return 100 * (on/off - 1) }
	p50off, p50on := quantile(off, 0.5), quantile(on, 0.5)
	p99off, p99on := quantile(off, 0.99), quantile(on, 0.99)
	tOff, tOn := throughput(closed), throughput(closedTraced)
	fmt.Fprintln(w, "tracing overhead (untraced -> traced half of each phase):")
	fmt.Fprintf(w, "  latency_p50_ms  %10.4f -> %10.4f (%+.1f%%)  n=%d/%d\n", p50off, p50on, pct(p50on, p50off), len(off), len(on))
	fmt.Fprintf(w, "  latency_p99_ms  %10.4f -> %10.4f (%+.1f%%)\n", p99off, p99on, pct(p99on, p99off))
	fmt.Fprintf(w, "  throughput_rps  %10.1f -> %10.1f (%+.1f%%)  n=%d/%d\n", tOff, tOn, pct(tOn, tOff), closed.completed, closedTraced.completed)
}
