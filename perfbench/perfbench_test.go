package main

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// testTable is a small dense table: 4 groups × 6 queries × 5 locations.
func testTable() *core.Table {
	tbl := core.NewTable()
	for g := 0; g < 4; g++ {
		grp := core.NewGroup(core.Predicate{Attr: "cohort", Value: fmt.Sprintf("g%d", g)})
		for q := 0; q < 6; q++ {
			for l := 0; l < 5; l++ {
				v := float64((g*31+q*17+l*7)%23) / 23
				tbl.Set(grp, core.Query(fmt.Sprintf("q%d", q)), core.Location(fmt.Sprintf("l%d", l)), v)
			}
		}
	}
	return tbl
}

func testUniverse(tbl *core.Table) *universe {
	snap := serve.NewSnapshot(tbl)
	u := &universe{groups: snap.GroupKeys()}
	for _, q := range snap.Queries() {
		u.queries = append(u.queries, string(q))
	}
	for _, l := range snap.Locations() {
		u.locs = append(u.locs, string(l))
	}
	tbl.Range(func(t core.Triple, _ float64) { u.cells = append(u.cells, t) })
	u.targets = []mitTarget{{query: "q0", loc: "l0", group: u.groups[0]}}
	return u
}

func TestSameSeedSameStream(t *testing.T) {
	u := testUniverse(testTable())
	for name, sp := range specs {
		draw := func(seed uint64) [3][]op {
			open, reads, writes := streams(sp, u, seed, 2*time.Second, 3*time.Second, 500)
			return [3][]op{open, reads, writes}
		}
		a, b := draw(7), draw(7)
		if len(a[0]) == 0 || len(a[1]) != 500 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two draws with seed 7 differ (%d, %d open ops)", name, len(a[0]), len(b[0]))
		}
		if reflect.DeepEqual(a, draw(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// wrongTarget answers like the engine except for one planted request,
// whose top answer it corrupts.
type wrongTarget struct {
	eng   *serve.Engine
	plant serve.Request
}

func (w wrongTarget) DoCtx(ctx context.Context, req serve.Request) serve.Response {
	resp := w.eng.DoCtx(ctx, req)
	if reflect.DeepEqual(req, w.plant) && len(resp.Results) > 0 {
		res := append([]topk.Result(nil), resp.Results...)
		res[0].Value += 0.5
		resp.Results = res
	}
	return resp
}

func TestOracleCatchesPlantedWrongAnswer(t *testing.T) {
	snap := serve.NewSnapshot(testTable())
	eng := serve.NewEngine(snap, serve.Options{})
	ops := []op{
		{req: serve.Request{Problem: serve.Quantify, Dim: compare.ByQuery, K: 3, Algorithm: topk.TA}},
		{req: serve.Request{Problem: serve.Quantify, Dim: compare.ByGroup, K: 2, Algorithm: topk.NRA}},
		{req: serve.Request{Problem: serve.Compare, Of: compare.ByGroup, R1: snap.GroupKeys()[0], R2: snap.GroupKeys()[1], By: compare.ByQuery}},
		{req: serve.Request{Problem: serve.Quantify, Dim: compare.ByLocation, K: 2, Algorithm: topk.FA}},
	}
	w := &world{snap: snap, t: wrongTarget{eng: eng, plant: ops[1].req}}
	rn := newRunner(w, 1)
	recs := make([]rec, len(ops))
	for i := range ops {
		rn.exec(ops, i, &recs[i], true)
		if recs[i].failed {
			t.Fatalf("op %d failed before the oracle ran: %v", i, recs[i].resp.Err)
		}
	}
	checked, bad, err := verify(engineRefs(rn.snaps), ops, recs, false)
	if checked != len(ops) || bad != 1 || err == nil {
		t.Fatalf("verify: checked %d, bad %d, err %v; want %d checked and the planted answer caught", checked, bad, err, len(ops))
	}
	for i := range recs {
		if recs[i].failed != (i == 1) {
			t.Errorf("op %d failed = %v, want %v", i, recs[i].failed, i == 1)
		}
	}
}

func TestCountingTransportForwardsUnchanged(t *testing.T) {
	tbl := testTable()
	plain := cluster.New(tbl, cluster.Options{Partitions: 3})
	ct := &countingTransport{}
	counted := cluster.New(tbl, cluster.Options{Partitions: 3, Transport: ct})
	ct.bind(counted)
	ref := serve.NewEngine(serve.NewSnapshot(tbl), serve.Options{CacheSize: -1})

	u := testUniverse(tbl)
	d := newDrawer(u, 3, 0)
	var total int64
	for i := 0; i < 60; i++ {
		_, req := d.read()
		if req.Problem == serve.Mitigate {
			continue // the test table carries no pages
		}
		tally := &rpcTally{traced: i%2 == 0}
		got := counted.DoCtx(withTally(context.Background(), tally), req)
		want := plain.DoCtx(context.Background(), req)
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("request %d %+v: counted coordinator answered\n %s\nplain coordinator\n %s", i, req, fingerprint(got), fingerprint(want))
		}
		if err := check(ref, req, got, true); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var n int64
		for k := range tally.n {
			n += tally.n[k].Load()
		}
		if n == 0 {
			t.Fatalf("request %d %+v: no Send was charged to its tally", i, req)
		}
		if tally.traced && len(tally.sends) != int(n) {
			t.Fatalf("request %d: %d Sends counted but %d recorded as spans", i, n, len(tally.sends))
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no traffic counted")
	}
}

func TestCoverageMergesOverlaps(t *testing.T) {
	sends := []sendSpan{{start: 0, end: 10}, {start: 5, end: 15}, {start: 20, end: 30}, {start: 28, end: 29}}
	if got := coverage(sends, 0, 100); got != 25 {
		t.Errorf("coverage = %d, want 25", got)
	}
	if got := coverage(sends, 8, 25); got != 12 {
		t.Errorf("clipped coverage = %d, want 12", got)
	}
}
