package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// Options configures a Coordinator.
type Options struct {
	// Partitions is the fan-out width; 0 or 1 selects a single partition
	// (the coordinator then routes everything through one node's engine,
	// which is how the overhead benchmark isolates the scatter-gather
	// tax from the partitioning itself).
	Partitions int
	// Transport overrides the default in-process transport — chaos and
	// gen-pin tests wrap the local transport with hooks here. Nil uses
	// NewLocalTransport over the coordinator's own nodes.
	Transport Transport
	// Obs, Tracer and Log mirror serve.Options: nil Obs gives the
	// coordinator a private registry (the serve_* request series land
	// there, next to the cluster_* series), nil Tracer disables tracing,
	// nil Log disables wide events. Log is re-stamped with component
	// "cluster".
	Obs    *obs.Registry
	Tracer *obs.Tracer
	Log    *obs.Logger
	// DefaultDeadline bounds requests that carry no deadline of their
	// own; 0 leaves them unbounded.
	DefaultDeadline time.Duration
	// LegFraction is the share of the request's remaining deadline one
	// fan-out leg may spend (default 0.5): a failed first leg leaves
	// budget for a retry instead of burning the whole request.
	LegFraction float64
	// MinLegBudget floors the per-leg budget (default 10ms) so a request
	// arriving nearly dead still gives its legs a usable slice.
	MinLegBudget time.Duration
	// HedgeFloor is the minimum hedge delay (default 1ms): never
	// duplicate a leg faster than this, no matter how fast the partition
	// has been.
	HedgeFloor time.Duration
	// HedgeMultiplier scales the partition's observed p99 into the hedge
	// delay (default 3): a leg exceeding HedgeMultiplier×p99 is assumed
	// stuck and a duplicate is launched.
	HedgeMultiplier float64
	// ScanBlock is the sorted-access block size: how many entries of
	// each list fragment one batched OpScan refill fetches (default 32).
	ScanBlock int
	// Retry is the per-leg backoff policy for transient errors. The
	// zero value retries twice with the serve defaults; the coordinator
	// installs its own Abort classifier for gen-pin mismatches on top.
	Retry serve.RetryPolicy
	// Seed seeds the deterministic hedge jitter.
	Seed uint64
	// NodeCacheSize is passed through to every node engine's result
	// cache (0 = engine default, negative disables).
	NodeCacheSize int
}

// hedgeAfterSamples is how many latency samples a partition must have
// before the coordinator trusts its p99 enough to hedge against it.
const hedgeAfterSamples = 8

// latTracker is a fixed ring of recent leg latencies for one partition,
// from which the hedge delay's p99 is derived.
type latTracker struct {
	mu    sync.Mutex
	ring  [64]float64
	count int
	// p99 cache: the sorted-quantile computation runs at most once per
	// p99RecomputeEvery samples, not once per leg — the hedge delay does
	// not need sample-level freshness, it needs to be within an epoch of
	// the partition's behavior.
	p99v  float64
	p99at int
}

// p99RecomputeEvery is how many new samples may arrive before the cached
// p99 is recomputed.
const p99RecomputeEvery = 8

func (t *latTracker) record(seconds float64) {
	t.mu.Lock()
	t.ring[t.count%len(t.ring)] = seconds
	t.count++
	t.mu.Unlock()
}

// p99 returns the tracked 99th percentile in seconds and whether enough
// samples exist to trust it.
func (t *latTracker) p99() (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count < hedgeAfterSamples {
		return 0, false
	}
	if t.p99at == 0 || t.count-t.p99at >= p99RecomputeEvery {
		m := t.count
		if m > len(t.ring) {
			m = len(t.ring)
		}
		buf := make([]float64, m)
		copy(buf, t.ring[:m])
		sort.Float64s(buf)
		idx := (99*m + 99) / 100 // ceil(0.99·m)
		if idx > m {
			idx = m
		}
		t.p99v = buf[idx-1]
		t.p99at = t.count
	}
	return t.p99v, true
}

type clusterMetrics struct {
	legs              *obs.Counter
	hedges            *obs.Counter
	hedgeWins         *obs.Counter
	hedgeLoserCancels *obs.Counter
	legRetries        *obs.Counter
	partials          *obs.Counter
	repins            *obs.Counter

	// Per-partition RED series, label-resolved once at construction so
	// the leg hot path indexes a slice instead of formatting a name:
	// rate (cluster_partition_legs_total{partition=...}), errors
	// (cluster_partition_leg_errors_total{partition=...}) and duration
	// (cluster_leg_seconds{partition=...}). The adaptive hedge delay
	// rides along as the cluster_hedge_delay_seconds{partition=...}
	// gauge, registered as a GaugeFunc over the live policy.
	partLegs       []*obs.Counter
	partLegErrors  []*obs.Counter
	partLegSeconds []*obs.Histogram
}

// Coordinator serves Problems 1–3 over a (query, location)-partitioned
// cluster by scatter-gather: distributed TA for quantify, a gathered
// cell store for compare, owner routing for mitigate. Requests run
// through the same serve.Lifecycle as the engine, with the scatter as
// its executor. See the package comment and DESIGN.md §14 for the fault
// model.
type Coordinator struct {
	n         int
	uni       *Universe
	nodes     []*Node
	subRank   [][]*core.MarketplaceRanking
	transport Transport
	geoms     map[compare.Dimension]*geom

	opts     Options
	legRetry serve.RetryPolicy
	reg      *obs.Registry
	tracer   *obs.Tracer
	life     *serve.Lifecycle
	met      clusterMetrics

	lat []latTracker

	rngMu sync.Mutex
	rng   *stats.RNG

	// gens caches the last generation seen per partition, seeding the
	// next request's pins so a pin mismatch is the exception (a refresh
	// landed), not the steady state.
	gens []atomic.Uint64

	// deg memoizes the degraded engine for the latest (missing set,
	// survivor generations); nil until the first degradation. One memo,
	// replaced when the key moves, so an outage with refreshing survivors
	// holds one table-sized engine, not one per generation seen.
	deg atomic.Pointer[degMemo]

	// cells memoizes the compare gather by generation vector; nil until
	// the first compare.
	cells atomic.Pointer[cellMemo]

	hasRankings bool
	pages       [][2]string
}

// degMemo is one degraded engine and the key it was built for.
type degMemo struct {
	key string
	eng *serve.Engine
}

// New builds a coordinator over tbl split into opts.Partitions
// partitions, with no marketplace pages (Problem 3 requests will report
// the usual "no marketplace pages" error).
func New(tbl *core.Table, opts Options) *Coordinator {
	return NewWithRankings(tbl, nil, nil, opts)
}

// NewWithRankings builds a coordinator whose partitions also own the
// marketplace pages routed to them, enabling Problem 3.
func NewWithRankings(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking, opts Options) *Coordinator {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	if opts.LegFraction <= 0 || opts.LegFraction > 1 {
		opts.LegFraction = 0.5
	}
	if opts.MinLegBudget <= 0 {
		opts.MinLegBudget = 10 * time.Millisecond
	}
	if opts.HedgeFloor <= 0 {
		opts.HedgeFloor = time.Millisecond
	}
	if opts.HedgeMultiplier <= 0 {
		opts.HedgeMultiplier = 3
	}
	if opts.ScanBlock <= 0 {
		opts.ScanBlock = 32
	}

	n := opts.Partitions
	uni := NewUniverse(tbl)
	subs := SplitTable(tbl, n)
	subRank := SplitRankings(rankings, n)
	nodes := make([]*Node, n)
	for p := 0; p < n; p++ {
		nodes[p] = NewNode(p, n, uni, subs[p], schema, subRank[p], NodeOptions{CacheSize: opts.NodeCacheSize})
	}
	transport := opts.Transport
	if transport == nil {
		transport = NewLocalTransport(nodes)
	}

	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		n:           n,
		uni:         uni,
		nodes:       nodes,
		subRank:     subRank,
		transport:   transport,
		geoms:       buildGeoms(uni, n),
		opts:        opts,
		legRetry:    opts.Retry,
		reg:         reg,
		tracer:      opts.Tracer,
		life:        serve.NewLifecycle(reg, opts.Tracer, opts.Log.Component("cluster"), opts.DefaultDeadline),
		lat:         make([]latTracker, n),
		rng:         stats.NewRNG(opts.Seed),
		gens:        make([]atomic.Uint64, n),
		hasRankings: len(rankings) > 0,
	}
	c.met = clusterMetrics{
		legs:              reg.Counter("cluster_fanout_legs_total"),
		hedges:            reg.Counter("cluster_hedges_total"),
		hedgeWins:         reg.Counter("cluster_hedge_wins_total"),
		hedgeLoserCancels: reg.Counter("cluster_hedge_loser_cancels_total"),
		legRetries:        reg.Counter("cluster_leg_retries_total"),
		partials:          reg.Counter("cluster_partial_results_total"),
		repins:            reg.Counter("cluster_repins_total"),
		partLegs:          make([]*obs.Counter, n),
		partLegErrors:     make([]*obs.Counter, n),
		partLegSeconds:    make([]*obs.Histogram, n),
	}
	for p := 0; p < n; p++ {
		lbl := strconv.Itoa(p)
		c.met.partLegs[p] = reg.Counter(obs.Name("cluster_partition_legs_total", "partition", lbl))
		c.met.partLegErrors[p] = reg.Counter(obs.Name("cluster_partition_leg_errors_total", "partition", lbl))
		c.met.partLegSeconds[p] = reg.Histogram(obs.Name("cluster_leg_seconds", "partition", lbl), obs.LatencyBuckets())
		p := p
		reg.GaugeFunc(obs.Name("cluster_hedge_delay_seconds", "partition", lbl), func() float64 {
			return c.hedgeBaseDelay(p).Seconds()
		})
	}
	for p := range nodes {
		c.gens[p].Store(nodes[p].Gen())
	}
	if c.hasRankings {
		seen := make(map[[2]string]bool)
		for _, r := range rankings {
			if r == nil {
				continue
			}
			key := [2]string{string(r.Query), string(r.Location)}
			if !seen[key] {
				seen[key] = true
				c.pages = append(c.pages, key)
			}
		}
		sort.Slice(c.pages, func(i, j int) bool {
			if c.pages[i][0] != c.pages[j][0] {
				return c.pages[i][0] < c.pages[j][0]
			}
			return c.pages[i][1] < c.pages[j][1]
		})
	}
	return c
}

// Partitions returns the fan-out width.
func (c *Coordinator) Partitions() int { return c.n }

// Node returns partition p's node, for refresh-driven tests and
// maintenance.
func (c *Coordinator) Node(p int) *Node { return c.nodes[p] }

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Target surface (loadgen workloads drive a coordinator exactly like an
// engine): dimension members, page inventory, ranking availability.

// GroupKeys returns the universe's canonical group keys, sorted.
func (c *Coordinator) GroupKeys() []string { return c.uni.GroupKeys }

// Queries returns the universe's queries, sorted.
func (c *Coordinator) Queries() []core.Query { return c.uni.Queries }

// Locations returns the universe's locations, sorted.
func (c *Coordinator) Locations() []core.Location { return c.uni.Locations }

// HasRankings reports whether any partition carries marketplace pages.
func (c *Coordinator) HasRankings() bool { return c.hasRankings }

// Pages returns the distinct (query, location) pages across all
// partitions, sorted.
func (c *Coordinator) Pages() [][2]string { return c.pages }

// Do answers one request without a caller context.
func (c *Coordinator) Do(req serve.Request) serve.Response {
	return c.DoCtx(context.Background(), req)
}

// DoCtx answers one request by scatter-gather, through the serve
// request lifecycle with the scatter as its executor. The request's
// deadline (or the coordinator default) bounds the whole fan-out; each
// leg gets its own slice of whatever remains when it starts. A
// partition lost past its retry budget degrades the answer to the
// surviving partitions' data, reported as a *PartialResultError; a
// generation pin flip re-pins and restarts the request once.
func (c *Coordinator) DoCtx(ctx context.Context, req serve.Request) serve.Response {
	st := newScatterStats(c.n)
	tr := c.tracer.Start(req.Problem.String())
	// Nodes must not re-apply the deadline to their slice of the work;
	// the fan-out context, which the lifecycle derives, carries it.
	fanout := req
	fanout.Deadline = 0
	return c.life.Serve(ctx, &req, 0, tr, func(ctx context.Context, tr *obs.Trace) serve.Response {
		return c.scatter(ctx, fanout, st, tr)
	}, func(ev obs.Event, resp serve.Response) obs.Event {
		return c.scatterFields(ev, resp, st)
	})
}

// scatter runs the pinned attempts of one validated request, each with
// the degraded recompute when partitions are lost. A pin flip — seen by
// the fan-out or by the degraded gather — re-pins and restarts once.
func (c *Coordinator) scatter(ctx context.Context, req serve.Request, st *scatterStats, tr *obs.Trace) serve.Response {
	for attempt := 0; ; attempt++ {
		rc := c.newReqCtx(st, tr)
		// Each pinned attempt is a span: the fan-out legs nest under it,
		// so a re-pinned request's waterfall shows both generations' work.
		att := tr.StartSpan("scatter")
		if attempt == 0 {
			att.SetKind("primary")
		} else {
			att.SetKind("repin")
		}
		rc.span = att
		resp := c.run(ctx, rc, req, tr)
		if rc.genFlipped() && attempt == 0 {
			// A partition refreshed under the pin: re-pin to the new
			// generations and restart so the answer is single-generation.
			c.met.repins.Inc()
			att.SetOutcome("gen-flip")
			att.Finish()
			continue
		}
		missing := rc.missing()
		if len(missing) == 0 {
			att.SetOutcome(serve.Outcome(resp.Err))
			att.Finish()
			return resp
		}
		att.SetOutcome("degraded")
		att.Finish()
		if ctx.Err() != nil {
			// The request deadline died with partitions already lost,
			// before a degraded recompute could run: surface the typed
			// context error, never a silent empty answer.
			if resp.Err == nil {
				resp.Err = typedCtxErr(ctx, ctx.Err())
			}
			return resp
		}
		tr.Annotate("missing", intsList(missing))
		// The degraded recompute is its own span; the survivors' cells
		// gather and the local engine's work nest under it.
		ds := tr.StartSpan("recompute")
		ds.SetKind("recompute")
		rc.span = ds
		resp = c.degrade(ctx, rc, req, missing)
		ds.SetOutcome(serve.Outcome(resp.Err))
		ds.Finish()
		if rc.genFlipped() && attempt == 0 {
			// A survivor refreshed since the pin (its legs never ran before
			// the lost partition cut the fan-out short): re-pin and restart
			// rather than answer from the survivors' old generation.
			c.met.repins.Inc()
			continue
		}
		c.met.partials.Inc()
		return resp
	}
}

// run executes one pinned attempt of the request.
func (c *Coordinator) run(ctx context.Context, rc *reqCtx, req serve.Request, tr *obs.Trace) serve.Response {
	// Single partition, or a page-local mitigate: one leg to the owner.
	// Mitigation uses only the page's own ranking and the shared schema,
	// both of which live on the pair's owner, so the owner's local answer
	// IS the global answer.
	if c.n == 1 || req.Problem == serve.Mitigate {
		p := 0
		if c.n > 1 {
			p = Route(core.Query(req.Query), core.Location(req.Location), c.n)
		}
		reply, err := rc.call(ctx, p, Call{Op: OpServe, Req: req})
		if err != nil {
			return serve.Response{Err: err}
		}
		return reply.Resp
	}
	switch req.Problem {
	case serve.Quantify:
		return c.runQuantify(ctx, rc, req, tr)
	case serve.Compare:
		return c.runCompare(ctx, rc, req)
	default:
		return serve.Response{Err: fmt.Errorf("serve: unknown problem %v", req.Problem)}
	}
}

// runQuantify is the distributed Problem 1: the same topk algorithm the
// single engine runs, over a ListSource whose sorted accesses stream
// from partition fragments in batched per-partition blocks and merge in
// canonical order, and whose random accesses scatter batched row
// lookups, one per partition. Because the merged lists are
// byte-identical to the single index's lists, the algorithm's every
// decision — thresholds, round count, early termination — is
// identical, which is the coordinator≡engine equivalence the tests pin.
func (c *Coordinator) runQuantify(ctx context.Context, rc *reqCtx, req serve.Request, tr *obs.Trace) serve.Response {
	tr.Annotate("algo", req.Algorithm.String())
	geo := c.geoms[req.Dim]
	if geo == nil || geo.numLists == 0 || geo.listLen == 0 {
		return serve.Response{Err: fmt.Errorf("serve: snapshot has no %v lists (empty table?)", req.Dim)}
	}
	// A fragment failure cancels the run context: the topk algorithm
	// unwinds at its next checkpoint instead of grinding on data that can
	// no longer be completed, and the coordinator degrades.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	rc.setOnFail(cancel)

	var src topk.ListSource = newScatterSource(runCtx, rc, req.Dim, geo)
	if req.Candidates != nil {
		restricted, err := topk.NewFilteredLists(src, req.Candidates)
		if err != nil {
			if len(rc.missing()) > 0 {
				return serve.Response{} // degrade recomputes from survivors
			}
			return serve.Response{Err: err}
		}
		src = restricted
	}
	resp := serve.Response{Gen: rc.pinnedGen()}
	resp.Results, resp.Stats, resp.Err = topk.TopKCtxWith(runCtx, src, req.K, req.Direction, req.Algorithm, nil)
	// One summary span per streamed-from partition, instead of a span per
	// scan or lookup round-trip: the rpcs counts they carry show the
	// per-partition cost of the request.
	rc.scanSummary()
	if len(rc.missing()) > 0 {
		// A partition was lost mid-run, so whatever the algorithm
		// concluded — an error, or a "clean" answer over lists that went
		// silently short — is poisoned: drop it and let the degraded
		// recompute produce the answer from the survivors.
		return serve.Response{}
	}
	if resp.Err == nil {
		// The algorithm may finish "cleanly" over lists a failed leg cut
		// short (a dying request makes every fragment look exhausted); a
		// run with any leg failure and no degradation path is a failure,
		// never a silently truncated answer.
		resp.Err = rc.firstLegErr()
	}
	resp.Err = typedCtxErr(ctx, resp.Err)
	return resp
}

// runCompare is the distributed Problem 2: gather every partition's
// cells (the union is exactly the single table's defined cells) and run
// the same comparison walk over the gathered store.
//
// The gathered store is memoized by generation vector: each OpCells leg
// names the generation the memo holds for that partition, and a node
// still serving it answers with no cells. Only partitions that moved
// ship cells, and a new memo replaces the old one. Pins are unchanged:
// a node refreshed since the pin refuses it with ErrGenMismatch and the
// request re-pins, so the memo only ever holds pinned generations.
func (c *Coordinator) runCompare(ctx context.Context, rc *reqCtx, req serve.Request) serve.Response {
	if err := ctx.Err(); err != nil {
		return serve.Response{Err: typedCtxErr(ctx, err)}
	}
	have := c.cells.Load()
	gens := make([]uint64, c.n)
	var fresh [][]Cell // per partition; set where the memo is stale
	for p := 0; p < c.n; p++ {
		call := Call{Op: OpCells}
		if have != nil {
			call.HaveGen = have.gens[p]
		}
		reply, err := rc.call(ctx, p, call)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return serve.Response{Err: typedCtxErr(ctx, err)}
			}
			continue // marked dead; degrade recomputes from survivors
		}
		gens[p] = reply.Gen
		if have == nil || reply.Gen != have.gens[p] {
			if fresh == nil {
				fresh = make([][]Cell, c.n)
			}
			fresh[p] = reply.Cells
		}
	}
	if len(rc.missing()) > 0 {
		return serve.Response{}
	}
	if err := rc.firstLegErr(); err != nil {
		// Same contract as quantify: a gather with failed legs and no
		// degradation path must not compute over silently partial cells.
		return serve.Response{Err: typedCtxErr(ctx, err)}
	}
	memo := have
	if fresh != nil {
		memo = newCellMemo(c.uni, have, gens, fresh)
		// Install unless a concurrent compare already replaced the memo
		// we started from; either way this request uses its own.
		c.cells.CompareAndSwap(have, memo)
	}
	var cmp *compare.Comparer
	if req.DefinedOnly {
		cmp = compare.NewDefinedOnlyFromCells(memo.store)
	} else {
		cmp = compare.NewFromCells(memo.store)
	}
	resp := serve.Response{Gen: rc.pinnedGen()}
	switch req.Of {
	case compare.ByGroup:
		resp.Comparison, resp.Err = cmp.Groups(req.R1, req.R2, req.By, compare.Scope{})
	case compare.ByQuery:
		resp.Comparison, resp.Err = cmp.Queries(core.Query(req.R1), core.Query(req.R2), req.By, compare.Scope{})
	case compare.ByLocation:
		resp.Comparison, resp.Err = cmp.Locations(core.Location(req.R1), core.Location(req.R2), req.By, compare.Scope{})
	}
	return resp
}

// degrade recomputes the request over the surviving partitions' data
// and wraps the answer in a *PartialResultError naming what is missing.
// The degraded engine is cached by (missing set, survivor generations):
// a burst of requests during an outage builds the merged table once.
func (c *Coordinator) degrade(ctx context.Context, rc *reqCtx, req serve.Request, missing []int) serve.Response {
	eng, err := c.degradedEngine(ctx, rc, missing)
	if err != nil {
		return serve.Response{Err: &PartialResultError{
			Missing:    missing,
			Partitions: c.n,
			Cause:      err,
		}}
	}
	// The recompute span rides the context so the degraded engine joins
	// the request's trace as an "engine" child instead of going dark.
	resp := eng.DoCtx(obs.ContextWithSpan(ctx, rc.span), req)
	resp.Err = &PartialResultError{
		Missing:    missing,
		Partitions: c.n,
		Cause:      resp.Err,
	}
	return resp
}

// degradedEngine gathers the survivors' cells into one merged table and
// serves it through a cache-less local engine. Every survivor answers a
// pinned cells call even when the memo matches the key — with HaveGen
// set, a node still at the pin ships no cells — because a survivor the
// fan-out never reached may have refreshed since the pin, and only its
// ErrGenMismatch reveals that the memo's table is stale.
func (c *Coordinator) degradedEngine(ctx context.Context, rc *reqCtx, missing []int) (*serve.Engine, error) {
	dead := make(map[int]bool, len(missing))
	for _, p := range missing {
		dead[p] = true
	}
	key := "miss:" + intsList(missing)
	var rankings []*core.MarketplaceRanking
	for p := 0; p < c.n; p++ {
		if dead[p] {
			continue
		}
		key += "|" + strconv.Itoa(p) + ":" + strconv.FormatUint(rc.pinFor(p), 10)
		rankings = append(rankings, c.subRank[p]...)
	}
	memo := c.deg.Load()
	hit := memo != nil && memo.key == key
	tbl := core.NewTable()
	for p := 0; p < c.n; p++ {
		if dead[p] {
			continue
		}
		call := Call{Op: OpCells}
		if hit {
			call.HaveGen = rc.pinFor(p)
		}
		reply, err := rc.call(ctx, p, call)
		if err != nil {
			// A partition lost between the fan-out and the recompute: the
			// degraded answer cannot be built this round.
			return nil, err
		}
		for _, cell := range reply.Cells {
			g, ok := c.uni.Group(cell.G)
			if !ok {
				continue // unreachable: sealed universe
			}
			tbl.Set(g, cell.Q, cell.L, cell.V)
		}
	}
	if hit {
		return memo.eng, nil
	}
	eng := serve.NewEngine(serve.NewSnapshotWithRankings(tbl, c.nodes[0].schema, rankings), serve.Options{
		Workers:   1,
		CacheSize: -1, // keyed cache would collide across missing-sets; the coordinator caches the engine instead
	})
	c.deg.Store(&degMemo{key: key, eng: eng})
	return eng, nil
}

// scatterFields adds the fan-out fields to the request's wide event:
// partitions is the cluster width, missing_partitions names the holes
// in a partial answer, and the scatter cost block (rpcs, hedges_fired,
// hedges_won, leg_retries, slowest_partition) is the one-line summary
// of what the trace's span tree shows leg by leg.
func (c *Coordinator) scatterFields(ev obs.Event, resp serve.Response, st *scatterStats) obs.Event {
	ev.Partitions = c.n
	ev.RPCs = st.rpcs.Load()
	ev.HedgesFired = st.hedgesFired.Load()
	ev.HedgesWon = st.hedgesWon.Load()
	ev.LegRetries = st.legRetries.Load()
	ev.SlowestPartition = st.slowest()
	if resp.Err != nil {
		var pres *PartialResultError // escapes through errors.As: declared only on failure
		if errors.As(resp.Err, &pres) {
			ev.MissingPartitions = pres.MissingList()
		}
	}
	return ev
}

// intsList renders partition ids as a comma-joined string.
func intsList(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// typedCtxErr maps a context failure of the REQUEST context into the
// serve-layer typed sentinels, leaving every other error as-is. Leg
// budget expiry deliberately stays a raw context error (retryable at
// the leg layer); only the request's own death becomes typed.
func typedCtxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	switch cerr := ctx.Err(); {
	case errors.Is(cerr, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", serve.ErrDeadlineExceeded, err)
	case errors.Is(cerr, context.Canceled):
		return fmt.Errorf("%w: %v", serve.ErrCanceled, err)
	}
	return err
}
