package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// countingTransport forwards every call to a local transport over the
// coordinator's own nodes, counting sends per op and the cells OpCells
// replies ship. down, when set to a partition id + 1, refuses every
// send to that partition the way a downed node would.
type countingTransport struct {
	inner cluster.Transport
	sends [4]atomic.Int64
	cells atomic.Int64
	down  atomic.Int64
}

func (ct *countingTransport) Send(ctx context.Context, p int, call cluster.Call) (cluster.Reply, error) {
	if d := ct.down.Load(); d > 0 && int(d-1) == p {
		return cluster.Reply{}, fmt.Errorf("%w: partition %d down (test)", cluster.ErrPartitionUnavailable, p)
	}
	ct.sends[call.Op].Add(1)
	reply, err := ct.inner.Send(ctx, p, call)
	ct.cells.Add(int64(len(reply.Cells)))
	return reply, err
}

func (ct *countingTransport) reset() {
	for i := range ct.sends {
		ct.sends[i].Store(0)
	}
	ct.cells.Store(0)
}

// countedCoordinator builds a coordinator whose transport counts sends.
// The coordinator takes its transport before it builds its nodes, so
// the inner transport is bound right after construction.
func countedCoordinator(tbl *core.Table, opts cluster.Options) (*cluster.Coordinator, *countingTransport) {
	ct := &countingTransport{}
	opts.Transport = ct
	coord := cluster.New(tbl, opts)
	nodes := make([]*cluster.Node, coord.Partitions())
	for p := range nodes {
		nodes[p] = coord.Node(p)
	}
	ct.inner = cluster.NewLocalTransport(nodes)
	return coord, ct
}

// TestScatterRPCBudget pins the batched protocol's cost: a distributed
// quantify costs each partition at most ceil(listLen/ScanBlock) scan
// RPCs, and at most one lookup RPC per partition per algorithm round,
// while answering byte-identically to the single engine. The lookup
// bound holds whenever ScanBlock ≥ partitions (see scatterSource), so
// the sweep runs at ScanBlock = partitions — where lists span several
// blocks and every refill path is exercised — and at the default.
// Hedging is pushed out of reach: a hedge duplicate is one more send.
func TestScatterRPCBudget(t *testing.T) {
	const ng, nq, nl = 12, 20, 18
	tbl := clusterTable(stats.NewRNG(3), ng, nq, nl, 0.15)
	single := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{CacheSize: -1, Workers: 1})
	listLen := map[compare.Dimension]int{compare.ByGroup: ng, compare.ByQuery: nq, compare.ByLocation: nl}
	var gks, qs, ls []string
	for _, g := range tbl.Groups() {
		gks = append(gks, g.Key())
	}
	for _, q := range tbl.Queries() {
		qs = append(qs, string(q))
	}
	for _, l := range tbl.Locations() {
		ls = append(ls, string(l))
	}
	candidates := map[compare.Dimension][]string{
		compare.ByGroup: gks[:3], compare.ByQuery: qs[2:6], compare.ByLocation: ls[1:4],
	}

	for _, n := range []int{2, 4, 8} {
		for _, block := range []int{n, 32} {
			coord, ct := countedCoordinator(tbl, cluster.Options{
				Partitions:    n,
				NodeCacheSize: -1,
				ScanBlock:     block,
				HedgeFloor:    time.Hour,
			})
			for _, dim := range []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation} {
				for _, algo := range topk.Algorithms() {
					for _, dir := range []topk.Direction{topk.MostUnfair, topk.LeastUnfair} {
						for _, cands := range [][]string{nil, candidates[dim]} {
							req := serve.Request{Problem: serve.Quantify, Dim: dim, K: 3, Direction: dir, Algorithm: algo, Candidates: cands}
							name := fmt.Sprintf("n=%d block=%d %v/%v/%v cands=%d", n, block, dim, algo, dir, len(cands))
							ct.reset()
							resp := coord.Do(req)
							if got, want := fingerprint(resp), fingerprint(single.Do(req)); got != want {
								t.Fatalf("%s: diverged from the engine:\n got: %s\nwant: %s", name, got, want)
							}
							scans, lookups := ct.sends[cluster.OpScan].Load(), ct.sends[cluster.OpLookup].Load()
							if budget := int64(n * ((listLen[dim] + block - 1) / block)); scans > budget {
								t.Errorf("%s: %d scan RPCs, budget partitions×ceil(listLen/ScanBlock) = %d", name, scans, budget)
							}
							if budget := int64(n * resp.Stats.Rounds); lookups > budget {
								t.Errorf("%s: %d lookup RPCs, budget partitions×rounds = %d", name, lookups, budget)
							}
						}
					}
				}
			}
		}
	}
}

// cellOwnedBy finds a defined cell of tbl whose pair routes to p.
func cellOwnedBy(t *testing.T, tbl *core.Table, p, n int) core.Triple {
	t.Helper()
	var found core.Triple
	ok := false
	tbl.Range(func(tr core.Triple, _ float64) {
		if !ok && cluster.Route(tr.Query, tr.Location, n) == p {
			found, ok = tr, true
		}
	})
	if !ok {
		t.Fatalf("no cell routes to partition %d of %d", p, n)
	}
	return found
}

// setCell returns a Refresh edit that sets one cell of tbl's universe.
func setCell(tbl *core.Table, tr core.Triple, v float64) func(*core.Table) {
	g, _ := tbl.GroupByKey(tr.GroupKey)
	return func(sub *core.Table) { sub.Set(g, tr.Query, tr.Location, v) }
}

// TestCompareMemoRefresh: the compare gather is memoized by generation
// vector. A repeat compare ships no cells; a Node.Refresh between two
// compares is seen — the answer is the refreshed table's, the response
// generation is the refreshed node's — and only the refreshed partition
// re-ships its cells.
func TestCompareMemoRefresh(t *testing.T) {
	const n, refreshed = 3, 1
	tbl := clusterTable(stats.NewRNG(5), 6, 5, 4, 0.15)
	coord, ct := countedCoordinator(tbl, cluster.Options{Partitions: n, NodeCacheSize: -1})
	// The refresh moves one of R1's cells on the refreshed partition, so
	// a stale memo would change the answer.
	tr := cellOwnedBy(t, tbl, refreshed, n)
	req := serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: tr.GroupKey, R2: tbl.Groups()[0].Key(), By: compare.ByQuery}
	if req.R2 == req.R1 {
		req.R2 = tbl.Groups()[1].Key()
	}
	reference := func(t *core.Table) string {
		return fingerprint(serve.NewEngine(serve.NewSnapshot(t), serve.Options{CacheSize: -1, Workers: 1}).Do(req))
	}

	if got, want := fingerprint(coord.Do(req)), reference(tbl); got != want {
		t.Fatalf("first compare diverged:\n got: %s\nwant: %s", got, want)
	}
	if ct.cells.Load() != int64(tbl.Len()) {
		t.Fatalf("first compare shipped %d cells, want the whole table's %d", ct.cells.Load(), tbl.Len())
	}
	ct.reset()
	if got, want := fingerprint(coord.Do(req)), reference(tbl); got != want {
		t.Fatalf("memoized compare diverged:\n got: %s\nwant: %s", got, want)
	}
	if ct.cells.Load() != 0 {
		t.Fatalf("memoized compare shipped %d cells, want 0", ct.cells.Load())
	}

	// Move the cell, on the node and in the reference table alike.
	edit := setCell(tbl, tr, 0.123456789)
	coord.Node(refreshed).Refresh(edit)
	after := tbl.Clone()
	edit(after)

	ct.reset()
	resp := coord.Do(req)
	if got, want := fingerprint(resp), reference(after); got != want {
		t.Fatalf("compare after refresh diverged:\n got: %s\nwant: %s", got, want)
	}
	if resp.Gen != coord.Node(refreshed).Gen() {
		t.Fatalf("compare after refresh served gen %d, want the refreshed node's %d", resp.Gen, coord.Node(refreshed).Gen())
	}
	sub := cluster.SplitTable(after, n)[refreshed]
	if ct.cells.Load() != int64(sub.Len()) {
		t.Fatalf("compare after refresh shipped %d cells, want only partition %d's %d", ct.cells.Load(), refreshed, sub.Len())
	}
}

// TestCompareMemoConcurrentRefresh runs compares against a node that
// refreshes underneath them, under -race in check.sh. Every answer must
// be single-generation: byte-equal to the engine over one of the two
// table states the refresher alternates between, or a typed failure
// (a pin that flipped again after its one re-pin), never a mix.
func TestCompareMemoConcurrentRefresh(t *testing.T) {
	const n, refreshed = 3, 2
	tbl := clusterTable(stats.NewRNG(9), 6, 5, 4, 0.15)
	coord := cluster.New(tbl, cluster.Options{Partitions: n, NodeCacheSize: -1})
	tr := cellOwnedBy(t, tbl, refreshed, n)
	req := serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: tr.GroupKey, R2: tbl.Groups()[0].Key(), By: compare.ByLocation}
	if req.R2 == req.R1 {
		req.R2 = tbl.Groups()[1].Key()
	}
	states := []func(*core.Table){setCell(tbl, tr, 0.25), setCell(tbl, tr, 0.75)}
	want := map[string]bool{}
	for _, edit := range states {
		s := tbl.Clone()
		edit(s)
		want[fingerprint(serve.NewEngine(serve.NewSnapshot(s), serve.Options{CacheSize: -1, Workers: 1}).Do(req))] = true
	}
	if len(want) != 2 {
		t.Fatal("the two refresh states must answer the compare differently")
	}
	coord.Node(refreshed).Refresh(states[0])

	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			coord.Node(refreshed).Refresh(states[i%2])
		}
	}()
	const readerCount = 2
	var answered atomic.Int64
	errs := make(chan error, readerCount) // each reader sends at most once
	var readers sync.WaitGroup
	for w := 0; w < readerCount; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < rounds; i++ {
				resp := coord.Do(req)
				if errors.Is(resp.Err, cluster.ErrGenMismatch) {
					continue
				}
				if !want[fingerprint(resp)] {
					errs <- fmt.Errorf("compare %d answered a state no generation holds: %s", i, fingerprint(resp))
					return
				}
				answered.Add(1)
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if answered.Load() == 0 {
		t.Fatal("no compare completed under concurrent refresh")
	}
}

// TestCompareMemoPartitionDown: a partition lost during a HaveGen
// gather (the memo is warm, so the gather asks every node for nothing
// but its generation) still degrades to a typed *PartialResultError
// whose payload is the survivors-only answer.
func TestCompareMemoPartitionDown(t *testing.T) {
	const n, downed = 3, 0
	tbl := clusterTable(stats.NewRNG(13), 6, 5, 4, 0.15)
	coord, ct := countedCoordinator(tbl, cluster.Options{
		Partitions:    n,
		NodeCacheSize: -1,
		Retry:         serve.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	gks := []string{tbl.Groups()[0].Key(), tbl.Groups()[1].Key()}
	req := serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByQuery}
	if resp := coord.Do(req); resp.Err != nil {
		t.Fatalf("warm-up compare: %v", resp.Err)
	}

	ct.down.Store(downed + 1)
	resp := coord.Do(req)
	var pres *cluster.PartialResultError
	if !errors.As(resp.Err, &pres) {
		t.Fatalf("want *PartialResultError with partition %d down, got %v", downed, resp.Err)
	}
	if len(pres.Missing) != 1 || pres.Missing[0] != downed || pres.Cause != nil {
		t.Fatalf("partial error = %+v, want missing [%d] and no cause", pres, downed)
	}
	survivor := core.NewTable()
	tbl.Range(func(tr core.Triple, v float64) {
		if cluster.Route(tr.Query, tr.Location, n) != downed {
			g, _ := tbl.GroupByKey(tr.GroupKey)
			survivor.Set(g, tr.Query, tr.Location, v)
		}
	})
	wantResp := serve.NewEngine(serve.NewSnapshot(survivor), serve.Options{CacheSize: -1, Workers: 1}).Do(req)
	if got, want := fmt.Sprintf("%+v", resp.Comparison), fmt.Sprintf("%+v", wantResp.Comparison); got != want {
		t.Fatalf("degraded compare diverged from the survivors-only engine:\n got: %s\nwant: %s", got, want)
	}

	// Back up: the memo still serves, byte-identical to the full table.
	ct.down.Store(0)
	full := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{CacheSize: -1, Workers: 1})
	if got, want := fingerprint(coord.Do(req)), fingerprint(full.Do(req)); got != want {
		t.Fatalf("compare after recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestDegradedEngineMemo: while a partition is down, every survivor
// refresh moves the degraded-engine key. The memo keeps only the latest
// engine — a repeat request reuses it, a refresh replaces it — and each
// degraded answer is byte-equal to a fresh engine over the survivors'
// cells at that generation.
func TestDegradedEngineMemo(t *testing.T) {
	const n, downed, refreshed = 3, 0, 1
	tbl := clusterTable(stats.NewRNG(17), 6, 5, 4, 0.15)
	coord, ct := countedCoordinator(tbl, cluster.Options{
		Partitions:    n,
		NodeCacheSize: -1,
		Retry:         serve.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	gks := []string{tbl.Groups()[0].Key(), tbl.Groups()[1].Key()}
	reqs := []serve.Request{
		{Problem: serve.Quantify, Dim: compare.ByGroup, K: 3, Algorithm: topk.TA},
		{Problem: serve.Compare, Of: compare.ByGroup, R1: gks[0], R2: gks[1], By: compare.ByQuery},
	}
	cell := cellOwnedBy(t, tbl, refreshed, n)
	cur := tbl.Clone()
	ct.down.Store(downed + 1)

	var prev *serve.Engine
	for round := 0; round < 4; round++ {
		if round > 0 {
			edit := setCell(tbl, cell, float64(round)/10)
			coord.Node(refreshed).Refresh(edit)
			edit(cur)
		}
		survivors := core.NewTable()
		cur.Range(func(tr core.Triple, v float64) {
			if cluster.Route(tr.Query, tr.Location, n) != downed {
				g, _ := cur.GroupByKey(tr.GroupKey)
				survivors.Set(g, tr.Query, tr.Location, v)
			}
		})
		ref := serve.NewEngine(serve.NewSnapshot(survivors), serve.Options{CacheSize: -1, Workers: 1})
		var eng *serve.Engine
		for rep := 0; rep < 2; rep++ {
			for _, req := range reqs {
				resp := coord.Do(req)
				var pres *cluster.PartialResultError
				if !errors.As(resp.Err, &pres) || pres.Cause != nil {
					t.Fatalf("round %d: want a clean *PartialResultError, got %v", round, resp.Err)
				}
				want := ref.Do(req)
				got := serve.Response{Results: resp.Results, Stats: resp.Stats, Comparison: resp.Comparison}
				if fingerprint(got) != fingerprint(want) {
					t.Fatalf("round %d: degraded answer diverged from the survivors' engine:\n got: %s\nwant: %s", round, fingerprint(got), fingerprint(want))
				}
				if eng == nil {
					eng = cluster.DegradedEngine(coord)
				} else if cluster.DegradedEngine(coord) != eng {
					t.Fatalf("round %d: a request at an unchanged generation rebuilt the degraded engine", round)
				}
			}
		}
		if eng == nil || eng == prev {
			t.Fatalf("round %d: the survivor refresh did not replace the memoized engine", round)
		}
		prev = eng
	}
}
