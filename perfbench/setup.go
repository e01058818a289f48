package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/experiment"
	"fairjob/internal/obs"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// target is what both load loops call: a single engine or the coordinator.
type target interface {
	DoCtx(ctx context.Context, req serve.Request) serve.Response
}

// world is one set-up system under test, wired as `fairjob loadtest`
// wires it: a registry, the tail-sampled tracer and the wide-event
// logger writing to an in-memory ring; no profiler, no admission cap.
type world struct {
	crawl []*core.MarketplaceRanking
	tbl   *core.Table
	snap  *serve.Snapshot // engine workloads only
	reg   *obs.Registry
	eng   *serve.Engine
	coord *cluster.Coordinator
	t     target
	times setupTimes
}

// setupTimes are the wall-clock cost of each set-up stage, and the
// bytes each data-path stage allocated.
type setupTimes struct {
	crawl, evaluate, snapshot, cluster, total time.Duration
	crawlAlloc, evalAlloc                     uint64
	cells                                     int
}

// firstRequest is the request whose answer ends set-up.
var firstRequest = serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 5, Algorithm: topk.TA}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// setUp builds the system from a fresh crawl to its first answer. The
// crawl seed is fixed: --seed shapes the offered stream, never the data.
func setUp(sp spec, tr *spanLog) (*world, error) {
	w := &world{reg: obs.NewRegistry()}
	obs.RegisterRuntimeMetrics(w.reg)
	tracer := obs.NewTracerTailSampled(obs.DefaultTraceCapacity, obs.TailSamplingPolicy{KeepOneInN: 1})
	logger := obs.NewLogger(obs.LoggerOptions{Component: "serve", Measure: "exposure", Sink: obs.NewRingSink(obs.DefaultEventCapacity), SampleN: 1})

	start := time.Now()
	a0 := totalAlloc()
	w.crawl = experiment.NewEnv(0).MarketCrawl()
	t1 := time.Now()
	a1 := totalAlloc()
	w.times.crawl = t1.Sub(start)
	w.times.crawlAlloc = a1 - a0

	ev := &core.MarketplaceEvaluator{Schema: core.DefaultSchema(), Measure: core.MeasureExposure, UseScores: true, Obs: w.reg}
	tbl, err := ev.EvaluateAllCtx(context.Background(), w.crawl, nil)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	w.times.evalAlloc = totalAlloc() - a1
	t2 := time.Now()
	w.times.evaluate = t2.Sub(t1)
	w.tbl = tbl
	w.times.cells = tbl.Len()

	build := "serve.snapshot_build"
	if sp.partitions > 0 {
		build = "cluster.build"
		ct := &countingTransport{}
		w.coord = cluster.NewWithRankings(tbl, nil, w.crawl, cluster.Options{
			Partitions: sp.partitions,
			Transport:  ct,
			Obs:        w.reg,
			Tracer:     tracer,
			Log:        logger,
			Seed:       1,
		})
		ct.bind(w.coord)
		w.t = w.coord
	} else {
		w.snap = serve.NewSnapshotWithRankings(tbl, nil, w.crawl)
		w.eng = serve.NewEngine(w.snap, serve.Options{Obs: w.reg, Tracer: tracer, Log: logger})
		w.t = w.eng
	}
	t3 := time.Now()
	if sp.partitions > 0 {
		w.times.cluster = t3.Sub(t2)
	} else {
		w.times.snapshot = t3.Sub(t2)
	}

	resp := w.t.DoCtx(context.Background(), firstRequest)
	t4 := time.Now()
	if resp.Err != nil {
		return nil, fmt.Errorf("first request: %w", resp.Err)
	}
	w.times.total = t4.Sub(start)

	root := tr.add(0, "setup", -1, start, t4)
	tr.add(0, "marketplace.crawl", root, start, t1)
	tr.add(0, "core.evaluate", root, t1, t2)
	tr.add(0, build, root, t2, t3)
	tr.add(0, "first_request", root, t3, t4)
	return w, nil
}

// opKinds is the number of cluster.Op values the counting transport
// tallies (OpScan through OpServe).
const opKinds = 4

// rpcTally is one request's transport traffic. The benchmark puts it on
// the DoCtx context, so every Send is charged to the request that caused
// it, hedges and retries included.
type rpcTally struct {
	n      [opKinds]atomic.Int64
	traced bool // record one span per Send

	mu    sync.Mutex
	sends []sendSpan
}

// sendSpan is one Transport.Send, timed from outside the program.
type sendSpan struct {
	op, partition int8
	start, end    int64 // ns since origin
}

type tallyKey struct{}

func withTally(ctx context.Context, t *rpcTally) context.Context {
	return context.WithValue(ctx, tallyKey{}, t)
}

// countingTransport forwards every call unchanged to a local transport
// over the coordinator's own nodes and charges it to the request's
// tally. The coordinator takes its Transport before it builds its nodes,
// so the inner transport is bound right after construction.
type countingTransport struct {
	inner cluster.Transport
}

func (c *countingTransport) bind(coord *cluster.Coordinator) {
	nodes := make([]*cluster.Node, coord.Partitions())
	for p := range nodes {
		nodes[p] = coord.Node(p)
	}
	c.inner = cluster.NewLocalTransport(nodes)
}

func (c *countingTransport) Send(ctx context.Context, partition int, call cluster.Call) (cluster.Reply, error) {
	t, _ := ctx.Value(tallyKey{}).(*rpcTally)
	op := int(call.Op)
	if t == nil || op < 0 || op >= opKinds {
		return c.inner.Send(ctx, partition, call)
	}
	t.n[op].Add(1)
	if !t.traced {
		return c.inner.Send(ctx, partition, call)
	}
	start := now()
	reply, err := c.inner.Send(ctx, partition, call)
	end := now()
	t.mu.Lock()
	t.sends = append(t.sends, sendSpan{op: int8(op), partition: int8(partition), start: start, end: end})
	t.mu.Unlock()
	return reply, err
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
