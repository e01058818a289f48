package topk

import (
	"testing"

	"fairjob/internal/core"
	"fairjob/internal/index"
)

func TestLessEntriesMatchesInvertedOrder(t *testing.T) {
	// Build an inverted list through the index package and assert
	// LessEntries agrees with its sort on every adjacent pair,
	// including value ties broken by key.
	tbl := core.NewTable()
	g1 := core.NewGroup(core.Predicate{Attr: "gender", Value: "Male"})
	g2 := core.NewGroup(core.Predicate{Attr: "gender", Value: "Female"})
	g3 := core.NewGroup(core.Predicate{Attr: "ethnicity", Value: "Black"})
	tbl.Set(g1, "q", "l", 0.5)
	tbl.Set(g2, "q", "l", 0.5) // tie with g1 on value
	tbl.Set(g3, "q", "l", 0.9)
	gi := index.BuildGroupIndex(tbl)
	iv := gi.Get("q", "l")
	entries := iv.Entries()
	if len(entries) != 3 {
		t.Fatalf("expected 3 entries, got %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if !LessEntries(entries[i-1], entries[i]) {
			t.Fatalf("index order violates LessEntries at %d: %+v !< %+v", i, entries[i-1], entries[i])
		}
	}
	// SortEntries over a shuffled copy reproduces the index order.
	shuffled := []index.Entry{entries[2], entries[0], entries[1]}
	SortEntries(shuffled)
	for i := range entries {
		if shuffled[i] != entries[i] {
			t.Fatalf("SortEntries diverged from index order at %d: %+v vs %+v", i, shuffled[i], entries[i])
		}
	}
}

func TestSliceListsAndScanFrom(t *testing.T) {
	lists := [][]index.Entry{
		{{Key: "a", Value: 3}, {Key: "b", Value: 2}, {Key: "c", Value: 1}},
		{{Key: "b", Value: 9}},
		nil,
	}
	s := NewSliceLists(lists)
	if s.NumLists() != 3 {
		t.Fatalf("NumLists = %d, want 3", s.NumLists())
	}
	if s.ListLen() != 3 {
		t.Fatalf("ListLen = %d, want longest list 3", s.ListLen())
	}
	if s.Len(1) != 1 || s.Len(2) != 0 {
		t.Fatalf("ragged Len wrong: %d, %d", s.Len(1), s.Len(2))
	}
	if e, ok := s.At(0, 1); !ok || e.Key != "b" {
		t.Fatalf("At(0,1) = %+v, %v", e, ok)
	}
	if _, ok := s.At(1, 1); ok {
		t.Fatal("At past a ragged list's end must report !ok")
	}
	if v, ok := s.Find(1, "b"); !ok || v != 9 {
		t.Fatalf("Find(1, b) = %v, %v", v, ok)
	}
	if _, ok := s.Find(0, "zzz"); ok {
		t.Fatal("Find of a missing key must report !ok")
	}

	// ScanFrom: block reads with caller-owned cursors resume exactly.
	first := ScanFrom(nil, s, 0, 0, 2)
	rest := ScanFrom(nil, s, 0, 2, 2)
	if len(first) != 2 || len(rest) != 1 {
		t.Fatalf("block sizes = %d, %d; want 2, 1", len(first), len(rest))
	}
	got := append(append([]index.Entry{}, first...), rest...)
	for i, e := range lists[0] {
		if got[i] != e {
			t.Fatalf("resumed scan diverged at %d: %+v vs %+v", i, got[i], e)
		}
	}
	if ScanFrom(nil, s, 0, 3, 4) != nil {
		t.Fatal("scan starting past the end must return nil")
	}
	if ScanFrom(nil, s, 2, 0, 4) != nil {
		t.Fatal("scan of an empty list must return nil")
	}
}
