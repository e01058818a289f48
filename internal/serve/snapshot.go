// Package serve is the concurrent query-serving layer over the paper's
// problems: Problem 1 (fairness quantification, Fagin-style top-k over
// the Table-5 indices), Problem 2 (fairness comparison, Algorithms
// 2–3), and Problem 3 (fairness mitigation — re-rank one marketplace
// page to reduce a group's measured Exposure deviation, internal/
// mitigate). It exists so that one machine can answer many simultaneous
// fairness queries — the "heavy traffic" regime of the ROADMAP —
// without any caller ever observing a torn index.
//
// The design splits serving into two pieces:
//
//   - Snapshot: a frozen, shared-read view of the three index families
//     built once from a core.Table. A snapshot is sealed — constructed
//     only by NewSnapshot or WithUpdates, never mutated afterwards — and
//     carries a process-unique generation number. Table refreshes are
//     copy-on-write: WithUpdates clones the sealed table, applies the
//     edits, and returns a brand-new snapshot; readers of the old
//     generation are completely undisturbed.
//
//   - Engine: a query executor holding the current snapshot behind an
//     atomic pointer, a bounded worker pool for batches (the PR 1
//     Workers/GOMAXPROCS convention of internal/core), and an LRU result
//     cache keyed by request shape and invalidated by snapshot
//     generation.
//
// All query-time state of the underlying algorithms lives in per-call
// structs (topk's taState et al., compare's accum), which is what makes a
// single snapshot safe for N simultaneous queries; the package's
// concurrency and fuzz tests pin that contract under -race.
package serve

import (
	"sort"
	"sync/atomic"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/topk"
)

// generation is the process-wide snapshot generation counter. Every
// snapshot ever constructed gets a unique number, so a cache entry keyed
// on a generation can never be satisfied by data from a different
// snapshot — even across independent engines.
var generation atomic.Uint64

// Snapshot is an immutable, shared-read view of one unfairness table and
// its three Table-5 index families, plus the two Problem 2 comparers
// (completion and defined-only semantics). All fields are sealed behind
// the constructor: there is no mutating method, and the source table is
// cloned on entry so later writes by the producer cannot leak in. A
// snapshot may be shared by any number of goroutines without
// synchronization.
type Snapshot struct {
	gen     uint64
	created time.Time   // freeze time, for the snapshot-age gauge
	tbl     *core.Table // private clone; never mutated after construction

	groupIdx *index.GroupIndex
	queryIdx *index.QueryIndex
	locIdx   *index.LocationIndex

	// Full-scope list sources, prebuilt once so per-query setup does not
	// re-collect |Q|·|L| inverted lists. ListSources are read-only.
	groupSrc, querySrc, locSrc topk.ListSource

	completion  *compare.Comparer
	definedOnly *compare.Comparer

	// Problem 3 (mitigation) state: the raw marketplace pages behind the
	// table, keyed by (query, location), plus the schema that projects
	// workers onto group labels. Both are sealed with the snapshot —
	// rankings are cloned on entry and never mutated (mitigation builds
	// permutations, not edits) — and nil for snapshots built without
	// pages, whose mitigate requests then error per-call.
	schema   *core.Schema
	rankings map[rankKey]*core.MarketplaceRanking
}

// rankKey addresses one marketplace page inside a snapshot.
type rankKey struct {
	q core.Query
	l core.Location
}

// NewSnapshot freezes tbl into a snapshot: the table is deep-cloned, the
// three index families are built from the clone (one goroutine per
// family), and the result is sealed. The caller's table remains its own —
// it may keep mutating it and later produce a fresh generation with
// another NewSnapshot or with Snapshot.WithUpdates.
func NewSnapshot(tbl *core.Table) *Snapshot {
	return newOwnedSnapshot(tbl.Clone())
}

// NewSnapshotWithRankings freezes tbl together with the marketplace
// pages it was evaluated from, enabling Problem 3 (mitigation) requests:
// the engine re-ranks a pinned page and re-measures it against the same
// generation both measurements see. The rankings are deep-cloned on
// entry, so the caller's slices remain its own; schema projects workers
// onto the group labels mitigation targets (nil selects
// core.DefaultSchema).
func NewSnapshotWithRankings(tbl *core.Table, schema *core.Schema, rankings []*core.MarketplaceRanking) *Snapshot {
	s := newOwnedSnapshot(tbl.Clone())
	if schema == nil {
		schema = core.DefaultSchema()
	}
	s.schema = schema
	s.rankings = make(map[rankKey]*core.MarketplaceRanking, len(rankings))
	for _, r := range rankings {
		if r == nil {
			continue
		}
		clone := &core.MarketplaceRanking{
			Query:    r.Query,
			Location: r.Location,
			Workers:  make([]core.RankedWorker, len(r.Workers)),
		}
		for i, w := range r.Workers {
			w.Attrs = w.Attrs.Clone()
			clone.Workers[i] = w
		}
		s.rankings[rankKey{r.Query, r.Location}] = clone
	}
	return s
}

// Ranking returns the sealed marketplace page for (q, l), when the
// snapshot carries pages at all. The result is shared and read-only.
func (s *Snapshot) Ranking(q core.Query, l core.Location) (*core.MarketplaceRanking, bool) {
	r, ok := s.rankings[rankKey{q, l}]
	return r, ok
}

// HasRankings reports whether the snapshot can serve mitigate requests.
func (s *Snapshot) HasRankings() bool { return len(s.rankings) > 0 }

// Pages returns the (query, location) coordinates of every sealed
// marketplace page, sorted — what a caller needs to pick a mitigation
// target without holding the crawl itself.
func (s *Snapshot) Pages() [][2]string {
	out := make([][2]string, 0, len(s.rankings))
	for k := range s.rankings {
		out = append(out, [2]string{string(k.q), string(k.l)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// newOwnedSnapshot seals a table the snapshot already owns exclusively.
func newOwnedSnapshot(tbl *core.Table) *Snapshot {
	gi, qi, li := index.BuildAll(tbl)
	s := &Snapshot{
		gen:         generation.Add(1),
		created:     time.Now(),
		tbl:         tbl,
		groupIdx:    gi,
		queryIdx:    qi,
		locIdx:      li,
		completion:  compare.New(gi),
		definedOnly: compare.NewDefinedOnlyWith(gi, tbl),
	}
	// The full-scope sources cannot fail: every (pair) combination of the
	// table's own dimensions is indexed by construction.
	var err error
	if s.groupSrc, err = topk.NewGroupLists(gi, nil, nil); err != nil {
		s.groupSrc = nil // empty table: quantify requests will error per-call
	}
	if s.querySrc, err = topk.NewQueryLists(qi, nil, nil); err != nil {
		s.querySrc = nil
	}
	if s.locSrc, err = topk.NewLocationLists(li, nil, nil); err != nil {
		s.locSrc = nil
	}
	return s
}

// WithUpdates returns a new snapshot whose table is a copy of this one
// with apply's edits: the sealed table is cloned, apply mutates the clone
// freely (Set / Merge / anything on core.Table), and the clone is frozen
// under a fresh generation. The receiver is untouched — queries running
// against it concurrently keep seeing the old generation, and cache
// entries for the old generation simply stop being produced.
func (s *Snapshot) WithUpdates(apply func(*core.Table)) *Snapshot {
	clone := s.tbl.Clone()
	if apply != nil {
		apply(clone)
	}
	next := newOwnedSnapshot(clone)
	// The mitigation pages ride along unchanged: they are sealed, so the
	// new generation may share them with the old one. A producer whose
	// pages themselves changed rebuilds with NewSnapshotWithRankings.
	next.schema = s.schema
	next.rankings = s.rankings
	return next
}

// Gen returns the snapshot's process-unique generation number.
func (s *Snapshot) Gen() uint64 { return s.gen }

// GroupKeys returns the canonical group keys of the snapshot's group
// dimension, sorted.
func (s *Snapshot) GroupKeys() []string { return s.groupIdx.GroupKeys }

// Queries returns the snapshot's query dimension, sorted.
func (s *Snapshot) Queries() []core.Query { return s.groupIdx.Queries }

// Locations returns the snapshot's location dimension, sorted.
func (s *Snapshot) Locations() []core.Location { return s.groupIdx.Locations }

// Group resolves a canonical group key to the core.Group recorded in the
// sealed table.
func (s *Snapshot) Group(key string) (core.Group, bool) { return s.groupIdx.Group(key) }

// DimensionOf resolves which dimension a comparison operand belongs to: a
// canonical group key, a query, or a location. The second return is false
// when the value appears in none of the snapshot's dimensions.
func (s *Snapshot) DimensionOf(v string) (compare.Dimension, bool) {
	if _, ok := s.groupIdx.Group(v); ok {
		return compare.ByGroup, true
	}
	for _, q := range s.groupIdx.Queries {
		if string(q) == v {
			return compare.ByQuery, true
		}
	}
	for _, l := range s.groupIdx.Locations {
		if string(l) == v {
			return compare.ByLocation, true
		}
	}
	return 0, false
}

// source returns the prebuilt full-scope list source for a quantification
// dimension, or nil for an unknown dimension or an empty table.
func (s *Snapshot) source(dim compare.Dimension) topk.ListSource {
	switch dim {
	case compare.ByGroup:
		return s.groupSrc
	case compare.ByQuery:
		return s.querySrc
	case compare.ByLocation:
		return s.locSrc
	default:
		return nil
	}
}

// comparer returns the Problem 2 comparer for the requested semantics.
func (s *Snapshot) comparer(definedOnly bool) *compare.Comparer {
	if definedOnly {
		return s.definedOnly
	}
	return s.completion
}
