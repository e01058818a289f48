package topk

import (
	"sort"

	"fairjob/internal/index"
)

// This file holds the block-access primitives the scatter-gather
// coordinator (internal/cluster) builds its distributed sorted access
// on: the canonical posting-list order as a standalone comparator, a
// ListSource over raw entry slices (a partition's list fragments), and
// a resumable block scan that a partition node serves without holding
// any per-client cursor state.

// LessEntries reports whether a sorts strictly before b in the
// canonical posting-list order: descending Value, ascending Key on
// ties. This is exactly the order index.Inverted sorts its entries in;
// merging per-partition fragments with this comparator therefore
// reproduces the single-index list byte-for-byte, which is what makes
// the coordinator's answers byte-identical to a single engine's.
func LessEntries(a, b index.Entry) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Key < b.Key
}

// SortEntries sorts entries in place into the canonical posting-list
// order.
func SortEntries(entries []index.Entry) {
	sort.Slice(entries, func(i, j int) bool { return LessEntries(entries[i], entries[j]) })
}

// SliceLists is a ListSource over raw, already-sorted entry slices —
// the form a partition node holds its list fragments in, and the form
// the coordinator's merged lists take. Unlike the index-backed sources
// the lists may be ragged (a fragment holds only the members a
// partition owns), so ListLen reports the longest list; algorithms that
// rely on the completion invariant should only be run over SliceLists
// built with equal-length lists.
type SliceLists struct {
	lists [][]index.Entry
	// finds are lazily-built per-list key→value maps for random access;
	// built once under buildOnce-style usage by the constructor, so
	// concurrent Find calls need no locking.
	finds  []map[string]float64
	maxLen int
}

// NewSliceLists wraps pre-sorted entry slices as a ListSource. Each
// list must already be in canonical order (use SortEntries). Random
// access maps are built eagerly so the value is safe for concurrent
// use.
func NewSliceLists(lists [][]index.Entry) *SliceLists {
	s := &SliceLists{lists: lists, finds: make([]map[string]float64, len(lists))}
	for i, l := range lists {
		m := make(map[string]float64, len(l))
		for _, e := range l {
			m[e.Key] = e.Value
		}
		s.finds[i] = m
		if len(l) > s.maxLen {
			s.maxLen = len(l)
		}
	}
	return s
}

func (s *SliceLists) NumLists() int { return len(s.lists) }

func (s *SliceLists) ListLen() int { return s.maxLen }

// Len returns the length of list i (fragments are ragged).
func (s *SliceLists) Len(i int) int { return len(s.lists[i]) }

func (s *SliceLists) At(i, pos int) (index.Entry, bool) {
	l := s.lists[i]
	if pos < 0 || pos >= len(l) {
		return index.Entry{}, false
	}
	return l[pos], true
}

func (s *SliceLists) Find(i int, key string) (float64, bool) {
	v, ok := s.finds[i][key]
	return v, ok
}

// ScanFrom is the resumable sorted-access primitive: it appends up to
// max entries of list i, starting at sorted position start, to dst and
// returns the extended slice. The caller owns the cursor (start), so a
// stateless server can answer interleaved scans from any number of
// clients — the partition node serves the coordinator's batched block
// fetches with this, appending every block of one reply into a single
// buffer. A start at or past the end appends nothing.
func ScanFrom(dst []index.Entry, src ListSource, i, start, max int) []index.Entry {
	if start < 0 || max <= 0 {
		return dst
	}
	for pos := start; pos < start+max; pos++ {
		e, ok := src.At(i, pos)
		if !ok {
			break
		}
		dst = append(dst, e)
	}
	return dst
}
