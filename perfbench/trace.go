package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fairjob/internal/serve"
)

// The traced run records spans from the benchmark's own code around
// every call into a layer: set-up stages, each request's scheduled →
// dispatched → started → finished timeline with its call into the
// program, each refresh, and (cluster) each Transport.Send charged to
// its request through the rpcTally on the DoCtx context. Spans stay in
// memory and are written out once the run ends.

// span is one recorded interval; parent is the index of the enclosing
// span in the same log, or -1.
type span struct {
	req        int32
	name       string
	parent     int32
	start, end int64 // ns since origin
}

// spanLog collects set-up spans. A nil log records nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(req int32, name string, parent int32, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{req: req, name: name, parent: parent,
		start: int64(start.Sub(origin)), end: int64(end.Sub(origin))})
	return int32(len(l.spans) - 1)
}

// requestSpans expands one executed op into its span tree: the request
// (scheduled → finished, named by the op's label) with the generator's
// dispatch, the queue wait, the call into the program and, under the
// call, every Send it caused. Parents are indices into the returned
// slice.
func requestSpans(id int32, o *op, r *rec) []span {
	out := []span{
		{req: id, name: "request:" + o.label, parent: -1, start: r.sched, end: r.end},
		{req: id, name: "bench.dispatch", parent: 0, start: r.sched, end: r.disp},
		{req: id, name: "bench.queue", parent: 0, start: r.disp, end: r.start},
		{req: id, name: layerOf(o, r), parent: 0, start: r.callStart, end: r.callEnd},
	}
	if r.tally != nil {
		r.tally.mu.Lock()
		for _, s := range r.tally.sends {
			out = append(out, span{req: id, name: "cluster.send." + opName(int(s.op)), parent: 3, start: s.start, end: s.end})
		}
		r.tally.mu.Unlock()
	}
	return out
}

// writeSpans writes every span as one tab-separated line: request id,
// span id, parent id, name, start and end in ns since the run began.
func writeSpans(path string, setup []span, ops []op, recs []rec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tspan\tparent\tname\tstart_ns\tend_ns")
	next := int32(0)
	emit := func(ss []span, base int32) {
		for _, s := range ss {
			parent := s.parent
			if parent >= 0 {
				parent += base
			}
			fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, next, parent, s.name, s.start, s.end)
			next++
		}
	}
	emit(setup, 0)
	for i := range recs {
		r := &recs[i]
		if !r.traced || r.op < 0 {
			continue
		}
		emit(requestSpans(int32(i+1), &ops[r.op], r), next)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf names the layer an op's call time belongs to: the cache-hit
// path, a top-k algorithm, compare, mitigate, or a refresh.
func layerOf(o *op, r *rec) string {
	switch {
	case o.isWrite():
		return "serve.refresh"
	case r.hit:
		return "serve.cache_hit"
	case o.req.Problem == serve.Quantify:
		return "topk." + algoName(o.req.Algorithm)
	case o.req.Problem == serve.Compare:
		return "compare"
	default:
		return "mitigate"
	}
}

// coverage returns the length of the union of the intervals, clipped to
// [lo, hi].
func coverage(sends []sendSpan, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(sends))
	for _, s := range sends {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// selfTimes attributes the traced requests' end-to-end time to layers
// by self time: each span minus the part its children cover. The rows
// sum to the end-to-end total; whatever the spans do not cover (the
// worker's own bookkeeping around the call) is reported as unattributed
// rather than hidden.
func selfTimes(ops []op, recs []rec) (rows map[string]int64, total int64, n int) {
	rows = map[string]int64{}
	for i := range recs {
		r := &recs[i]
		if !r.traced || r.op < 0 {
			continue
		}
		n++
		e2e := r.end - r.sched
		total += e2e
		rows["bench.dispatch"] += r.disp - r.sched
		rows["bench.queue"] += r.start - r.disp
		call := r.callEnd - r.callStart
		layer := layerOf(&ops[r.op], r)
		if r.tally != nil {
			r.tally.mu.Lock()
			cov := coverage(r.tally.sends, r.callStart, r.callEnd)
			r.tally.mu.Unlock()
			rows["cluster.transport"] += cov
			layer = "cluster.coordinator"
			call -= cov
		}
		rows[layer] += call
		rows["unattributed"] += e2e - (r.disp - r.sched) - (r.start - r.disp) - (r.callEnd - r.callStart)
	}
	return rows, total, n
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, rows map[string]int64, total int64, n int) {
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	fmt.Fprintf(w, "per-layer self time over %d traced requests (end-to-end total %.1f ms):\n", n, float64(total)/1e6)
	var sum int64
	for _, k := range names {
		sum += rows[k]
		share := 0.0
		if total > 0 {
			share = 100 * float64(rows[k]) / float64(total)
		}
		fmt.Fprintf(w, "  %-24s %12.3f ms  %6.2f%%  %9.4f ms/req\n", k, float64(rows[k])/1e6, share, float64(rows[k])/1e6/float64(max(n, 1)))
	}
	fmt.Fprintf(w, "  %-24s %12.3f ms  (end-to-end %.3f ms)\n", "sum", float64(sum)/1e6, float64(total)/1e6)
}

// printSetupSelfTimes writes the set-up spans' self times, summed over
// every set-up of the run.
func printSetupSelfTimes(w io.Writer, spans []span) {
	self := map[string]int64{}
	var order []string
	for i, s := range spans {
		d := s.end - s.start
		for _, c := range spans {
			if c.parent == int32(i) {
				d -= c.end - c.start
			}
		}
		if _, ok := self[s.name]; !ok {
			order = append(order, s.name)
		}
		self[s.name] += d
	}
	fmt.Fprintln(w, "set-up self time (summed over set-ups):")
	for _, k := range order {
		fmt.Fprintf(w, "  %-24s %10.3f s\n", k, float64(self[k])/1e9)
	}
}
