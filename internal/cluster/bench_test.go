package cluster_test

import (
	"fmt"
	"testing"

	"fairjob/internal/cluster"
	"fairjob/internal/compare"
	"fairjob/internal/serve"
	"fairjob/internal/stats"
	"fairjob/internal/topk"
)

// BenchmarkClusterQuantify measures one distributed quantify at the
// marketplace table's shape (11 groups × 96 queries × 56 locations,
// ~4% of cells undefined), cycling through every dimension × algorithm.
// rpcs/op counts transport sends per request — hedges and retries
// included — and allocs/op the coordinator's allocation per request;
// both track the batched scatter protocol. Run with
//
//	go test -run '^$' -bench BenchmarkClusterQuantify -benchmem ./internal/cluster/
func BenchmarkClusterQuantify(b *testing.B) {
	tbl := clusterTable(stats.NewRNG(1), 11, 96, 56, 0.043)
	var reqs []serve.Request
	for _, dim := range []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation} {
		for _, algo := range topk.Algorithms() {
			reqs = append(reqs, serve.Request{Problem: serve.Quantify, Dim: dim, K: 5, Algorithm: algo})
		}
	}
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("partitions=%d", n), func(b *testing.B) {
			coord, ct := countedCoordinator(tbl, cluster.Options{Partitions: n, NodeCacheSize: -1})
			b.ReportAllocs()
			ct.reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := coord.Do(reqs[i%len(reqs)]); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
			b.StopTimer()
			var rpcs int64
			for op := range ct.sends {
				rpcs += ct.sends[op].Load()
			}
			b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/op")
		})
	}
}
