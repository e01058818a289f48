package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsFullyInert covers the disabled-tracing contract: every
// operation on a nil tracer and the nil traces it hands out must be a
// safe no-op.
func TestNilTracerIsFullyInert(t *testing.T) {
	var tz *Tracer
	tr := tz.Start("q")
	if tr != nil {
		t.Fatal("nil tracer returned a trace")
	}
	tr.Phase("phase") // must not panic
	tr.Annotate("k", "v")
	tz.Finish(tr)
	if tz.Finished() != 0 {
		t.Fatalf("nil tracer finished = %d", tz.Finished())
	}
	if tz.Recent() != nil {
		t.Fatal("nil tracer has recent traces")
	}
}

// TestTraceSpansAreContiguous pins the phase model: phases are
// finished root children of kind "phase", in call order, tiling the
// request's timeline from 0 with no gap and no overlap.
func TestTraceSpansAreContiguous(t *testing.T) {
	tz := NewTracer(4)
	tr := tz.Start("query")
	tr.Phase("a")
	time.Sleep(time.Millisecond)
	tr.Phase("b")
	tr.Annotate("cache", "miss")
	tz.Finish(tr)

	if len(tr.Children) != 2 {
		t.Fatalf("phases = %+v", tr.Children)
	}
	a, b := tr.Children[0], tr.Children[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("phase names = %q, %q", a.Name, b.Name)
	}
	for _, ph := range tr.Children {
		if ph.Kind != "phase" || ph.Parent != 0 || ph.Partition != -1 || ph.Dur < 0 {
			t.Fatalf("phase is not a finished root child of kind phase: %+v", ph)
		}
	}
	if a.Start != 0 {
		t.Fatalf("first phase starts at %v", a.Start)
	}
	if b.Start != a.Start+a.Dur {
		t.Fatal("phases are not contiguous")
	}
	if b.Dur < time.Millisecond {
		t.Fatalf("phase b duration = %v, want ≥ 1ms", b.Dur)
	}
	if tr.Total < b.Start+b.Dur {
		t.Fatalf("total %v < end of last phase", tr.Total)
	}
	if err := tr.CheckSpans(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Annots) != 1 || tr.Annots[0] != (Annotation{"cache", "miss"}) {
		t.Fatalf("annotations = %v", tr.Annots)
	}
}

// TestRingWraparound fills a small ring past capacity and checks that
// Recent returns exactly the newest traces, newest first.
func TestRingWraparound(t *testing.T) {
	const capacity, total = 4, 10
	tz := NewTracer(capacity)
	for i := 1; i <= total; i++ {
		tz.Finish(tz.Start(fmt.Sprintf("q%d", i)))
	}
	if tz.Finished() != total {
		t.Fatalf("finished = %d, want %d", tz.Finished(), total)
	}
	recent := tz.Recent()
	if len(recent) != capacity {
		t.Fatalf("recent len = %d, want %d", len(recent), capacity)
	}
	for i, tr := range recent {
		want := fmt.Sprintf("q%d", total-i)
		if tr.Label != want {
			t.Fatalf("recent[%d] = %s, want %s (ring order broken)", i, tr.Label, want)
		}
	}
}

func TestRecentBeforeFull(t *testing.T) {
	tz := NewTracer(8)
	for i := 1; i <= 3; i++ {
		tz.Finish(tz.Start(fmt.Sprintf("q%d", i)))
	}
	recent := tz.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent len = %d", len(recent))
	}
	for i, want := range []string{"q3", "q2", "q1"} {
		if recent[i].Label != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].Label, want)
		}
	}
}

func TestTraceIDsAreUnique(t *testing.T) {
	tz := NewTracer(16)
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		tr := tz.Start("q")
		if seen[tr.ID] {
			t.Fatalf("duplicate trace id %d", tr.ID)
		}
		seen[tr.ID] = true
		tz.Finish(tr)
	}
}

// TestConcurrentTracing hammers Start/Phase/Finish/Recent from many
// goroutines; -race must stay quiet and the finished count exact.
func TestConcurrentTracing(t *testing.T) {
	const workers, perWorker = 8, 500
	tz := NewTracer(32)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := tz.Start("q")
				tr.Phase("only")
				tz.Finish(tr)
				if i%100 == 0 {
					tz.Recent()
				}
			}
		}()
	}
	wg.Wait()
	if tz.Finished() != workers*perWorker {
		t.Fatalf("finished = %d, want %d", tz.Finished(), workers*perWorker)
	}
	if len(tz.Recent()) != 32 {
		t.Fatalf("ring len = %d, want 32", len(tz.Recent()))
	}
}
