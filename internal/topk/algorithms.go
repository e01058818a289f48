package topk

import (
	"context"
	"fmt"
	"sort"
)

// Direction selects between the most-unfair (descending) and least-unfair
// (ascending) variants of Problem 1.
type Direction int

const (
	// MostUnfair returns the k members with the highest aggregated
	// unfairness.
	MostUnfair Direction = iota
	// LeastUnfair returns the k members with the lowest aggregated
	// unfairness.
	LeastUnfair
)

func (d Direction) String() string {
	switch d {
	case MostUnfair:
		return "most-unfair"
	case LeastUnfair:
		return "least-unfair"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Algorithm selects the top-k strategy. TA is the paper's Algorithm 1;
// FA and Naive are the baselines used in the ablation benchmarks.
type Algorithm int

const (
	// TA is Fagin's Threshold Algorithm: round-robin sorted access with
	// random-access completion and a threshold stopping rule.
	TA Algorithm = iota
	// FA is Fagin's original algorithm: sorted access until k members
	// have been seen on every list, then random-access completion.
	FA
	// Naive scans every member of every list.
	Naive
	// NRA is Fagin's No-Random-Access algorithm: sorted access only,
	// with lower/upper score bounds per member.
	NRA
)

func (a Algorithm) String() string {
	switch a {
	case TA:
		return "TA"
	case FA:
		return "FA"
	case Naive:
		return "naive"
	case NRA:
		return "NRA"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists every implemented top-k strategy, in declaration
// order; the equivalence tests and the serve layer's cross-algorithm
// checks iterate it rather than hard-coding the set.
func Algorithms() []Algorithm { return []Algorithm{TA, FA, Naive, NRA} }

// Stats reports the access costs of a top-k run, the quantity the
// Fagin-vs-baseline ablation measures.
type Stats struct {
	SortedAccesses int
	RandomAccesses int
	Rounds         int
}

// Total returns the combined sorted + random access count, the cost
// metric of the Fagin-vs-naive comparison.
func (s Stats) Total() int { return s.SortedAccesses + s.RandomAccesses }

// Every algorithm below keeps its query-time state — round-robin sorted
// access cursors, seen-sets, candidate accumulators, bounded result heaps
// and access-cost counters — in a per-call state struct built fresh inside
// TopK. A ListSource is only ever read, never written, so a single source
// (typically a view over an immutable index snapshot, see internal/serve)
// safely serves any number of simultaneous TopK calls; the race and
// concurrency tests pin this contract.

// Recorder receives the access-cost statistics of completed top-k runs.
// The serve engine implements it to export every execution's Stats into
// its per-algorithm telemetry histograms (DESIGN.md §9); experiments and
// ablations can implement it to collect Table-6-style cost series
// without threading counters through call sites.
type Recorder interface {
	RecordTopK(algo Algorithm, dir Direction, st Stats)
}

// RecorderFunc adapts a plain function to Recorder, the way
// http.HandlerFunc adapts handlers — wide-event emission and tests hook
// the access-cost hand-off with a closure instead of a named type.
type RecorderFunc func(algo Algorithm, dir Direction, st Stats)

// RecordTopK implements Recorder by calling f.
func (f RecorderFunc) RecordTopK(algo Algorithm, dir Direction, st Stats) { f(algo, dir, st) }

// TopK solves fairness quantification over src: the k members with the
// most/least average value across lists. It returns results in order
// (most-unfair first for MostUnfair, least-unfair first for LeastUnfair).
// k larger than the membership returns all members ranked.
func TopK(src ListSource, k int, dir Direction, algo Algorithm) ([]Result, Stats, error) {
	return TopKWith(src, k, dir, algo, nil)
}

// TopKWith is TopK with an optional Recorder: a successful run reports
// its Stats to rec before returning. A nil rec records nothing.
func TopKWith(src ListSource, k int, dir Direction, algo Algorithm, rec Recorder) ([]Result, Stats, error) {
	return TopKCtxWith(context.Background(), src, k, dir, algo, rec)
}

func errKNotPositive(k int) error {
	return fmt.Errorf("topk: k must be positive, got %d", k)
}

// errUnknownAlgorithm is a misconfiguration (the Algorithm enum is
// closed), so dispatch panics with it rather than returning it — the
// config-time half of the panic-vs-error policy in the repository
// doc.go.
func errUnknownAlgorithm(algo Algorithm) string {
	return fmt.Sprintf("topk: unknown algorithm %d", int(algo))
}

// taState owns the query-time state of one Threshold Algorithm execution
// (the paper's Algorithm 1): the shared sorted-access cursor, the set of
// members already completed by random access, the bounded result heap and
// the access counters. Nothing here outlives or escapes the call.
type taState struct {
	src    ListSource
	k      int
	cursor int             // round-robin sorted-access position, shared by all lists
	seen   map[string]bool // members already completed via random access
	heap   minHeap         // current top-k candidates
	cancel canceler
	stats  Stats
}

func newTAState(src ListSource, k int) *taState {
	return &taState{src: src, k: k, seen: make(map[string]bool)}
}

// run advances the cursor one position per round across every list
// (sorted access), completes each newly discovered member with random
// accesses to all other lists, and recomputes the round threshold τ — the
// average of the frontier values, a valid upper bound on any unseen
// member's aggregate because lists are sorted descending and membership is
// identical. It stops when the heap holds k members with min value ≥ τ,
// or when the lists are exhausted.
func (st *taState) run() ([]Result, Stats, error) {
	n := st.src.NumLists()
	listLen := st.src.ListLen()
	denom := float64(n)
	for ; st.cursor < listLen; st.cursor++ {
		if err := st.cancel.check(); err != nil {
			return nil, st.stats, err
		}
		st.stats.Rounds++
		var frontierSum float64
		for i := 0; i < n; i++ {
			e, ok := st.src.At(i, st.cursor)
			st.stats.SortedAccesses++
			if !ok {
				return st.heap.Drain(), st.stats, nil
			}
			frontierSum += e.Value
			if st.seen[e.Key] {
				continue
			}
			st.seen[e.Key] = true
			total := e.Value
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				v, _ := st.src.Find(j, e.Key)
				st.stats.RandomAccesses++
				total += v
			}
			st.heap.Offer(Result{Key: e.Key, Value: total / denom}, st.k)
		}
		tau := frontierSum / denom
		if st.heap.Len() >= st.k && st.heap.MinValue() >= tau {
			break
		}
	}
	return st.heap.Drain(), st.stats, nil
}

// faState owns the query-time state of one run of Fagin's original
// algorithm: the per-member list-coverage counts from the sorted-access
// phase, and the result heap of the random-access completion phase.
type faState struct {
	src    ListSource
	k      int
	count  map[string]int // lists each member has been seen on
	full   int            // members seen on every list
	cancel canceler
	stats  Stats
}

func newFAState(src ListSource, k int) *faState {
	return &faState{src: src, k: k, count: make(map[string]int)}
}

// run performs sorted access in parallel until at least k members have
// been encountered on every list, then completes every member seen with
// random accesses.
func (st *faState) run() ([]Result, Stats, error) {
	n := st.src.NumLists()
	listLen := st.src.ListLen()
	for pos := 0; pos < listLen && st.full < st.k; pos++ {
		if err := st.cancel.check(); err != nil {
			return nil, st.stats, err
		}
		st.stats.Rounds++
		for i := 0; i < n; i++ {
			e, ok := st.src.At(i, pos)
			st.stats.SortedAccesses++
			if !ok {
				continue
			}
			st.count[e.Key]++
			if st.count[e.Key] == n {
				st.full++
			}
		}
	}
	var heap minHeap
	completed := 0
	for key := range st.count {
		if completed&(checkpointStride-1) == 0 {
			if err := st.cancel.check(); err != nil {
				return nil, st.stats, err
			}
		}
		completed++
		var total float64
		for i := 0; i < n; i++ {
			v, _ := st.src.Find(i, key)
			st.stats.RandomAccesses++
			total += v
		}
		heap.Offer(Result{Key: key, Value: total / float64(n)}, st.k)
	}
	return heap.Drain(), st.stats, nil
}

// naiveState owns the query-time state of the naive full scan: the
// per-member running totals.
type naiveState struct {
	src    ListSource
	k      int
	totals map[string]float64
	cancel canceler
	stats  Stats
}

func newNaiveState(src ListSource, k int) *naiveState {
	return &naiveState{src: src, k: k, totals: make(map[string]float64, src.ListLen())}
}

// run reads every posting of every list, checking for cancellation
// every checkpointStride postings — the full scan has no natural round
// boundary, so the stride is what bounds cancellation latency here.
func (st *naiveState) run() ([]Result, Stats, error) {
	n := st.src.NumLists()
	listLen := st.src.ListLen()
	for i := 0; i < n; i++ {
		for pos := 0; pos < listLen; pos++ {
			if pos&(checkpointStride-1) == 0 {
				if err := st.cancel.check(); err != nil {
					return nil, st.stats, err
				}
			}
			e, ok := st.src.At(i, pos)
			st.stats.SortedAccesses++
			if !ok {
				break
			}
			st.totals[e.Key] += e.Value
		}
	}
	st.stats.Rounds = listLen
	var heap minHeap
	for key, total := range st.totals {
		heap.Offer(Result{Key: key, Value: total / float64(n)}, st.k)
	}
	return heap.Drain(), st.stats, nil
}

// sortResults orders results descending by value with deterministic key
// tie-break; exported algorithms return already-ordered output, this is a
// helper for tests and aggregation call sites.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Value != rs[j].Value {
			return rs[i].Value > rs[j].Value
		}
		return rs[i].Key < rs[j].Key
	})
}
