package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one phase of a traced query: its name, its offset from the
// trace start, and its duration. Spans are contiguous — each Mark closes
// the span running since the previous mark — which matches the serve
// pipeline's linear phase structure (snapshot pin → cache lookup →
// execute → record).
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Annotation is one key-value tag on a trace (generation, algorithm,
// cache-hit flag, error text).
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// ChildSpan is one node of a trace's span tree: a sub-operation (a
// fan-out leg, a hedge duplicate, a retry attempt, a degraded
// recompute, a node-side engine execution) with its own offset,
// duration and outcome. Unlike the contiguous Mark spans, child spans
// may overlap and nest — parent links form the tree, Link pairs a hedge
// duplicate with the leg it raced.
type ChildSpan struct {
	// ID is the span's 1-based position in the trace's Children slice;
	// Parent is the ID of the enclosing span, 0 for a child of the trace
	// root. Parent is always < ID (a span cannot enclose one created
	// before it), which keeps the tree acyclic by construction.
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	// Kind classifies the attempt: primary | hedge | retry | repin |
	// recompute | engine | scan.
	Kind string `json:"kind,omitempty"`
	// Partition is the cluster partition the span ran against, -1 when
	// the span is not partition-bound.
	Partition int32         `json:"partition"`
	Start     time.Duration `json:"start_ns"`
	// Dur is -1 until the span finishes — which is how the chaos suite
	// detects a leg that was started and never closed.
	Dur     time.Duration `json:"dur_ns"`
	Gen     uint64        `json:"gen,omitempty"`
	Entries int32         `json:"entries,omitempty"`
	// Outcome is how the attempt ended: ok, won, lost, canceled, or an
	// error class. "won"/"lost" mark the two sides of a hedge race.
	Outcome string `json:"outcome,omitempty"`
	// Link is the ID of the span's hedge-race peer (0 = none). Links are
	// reciprocal: both sides of a pair name each other.
	Link int32 `json:"link,omitempty"`
	// Annots are per-span tags. They allocate (no inline buffer), so the
	// instrumentation uses them sparingly — summary spans, not hot legs.
	Annots []Annotation `json:"annotations,omitempty"`
}

// Trace is the record of one query through an instrumented pipeline. A
// trace is owned by the goroutine executing the query; Finish copies a
// retained trace into the tracer's ring by value, so the caller keeps
// reading its own object (JoinID, wide-event fields) until it hands it
// back with Release. All methods are nil-receiver-safe so
// instrumentation sites can run unconditionally — with tracing
// disabled, Start returns nil and every Mark/Annotate on it is a no-op
// costing one predictable branch.
type Trace struct {
	ID    uint64        `json:"id"`
	Label string        `json:"label"`
	Begin time.Time     `json:"begin"`
	Total time.Duration `json:"total_ns"`
	// Gen and QueueWait are typed fast-path tags (snapshot generation,
	// time queued before a batch worker picked the request up). They are
	// fields rather than Annotations so the hot path stores an integer
	// instead of formatting a string per query.
	Gen       uint64        `json:"gen,omitempty"`
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	// Outcome is how the traced request ended (ok, shed, deadline,
	// canceled, panic, error); empty is treated as ok. Slow is stamped
	// at Finish when Total reaches the tracer's tail-sampling threshold.
	// Together they drive tail sampling and the /debug/traces filters.
	Outcome string       `json:"outcome,omitempty"`
	Slow    bool         `json:"slow,omitempty"`
	Spans   []Span       `json:"spans"`
	Annots  []Annotation `json:"annotations,omitempty"`
	// Children is the span tree (see ChildSpan); SpansDropped counts
	// spans refused by the MaxChildSpans cap, so a truncated tree is
	// visibly truncated rather than silently complete-looking.
	Children     []ChildSpan `json:"children,omitempty"`
	SpansDropped int32       `json:"spans_dropped,omitempty"`

	spanBuf  [5]Span       // inline storage: the serve pipeline has ≤ 5 phases
	annotBuf [2]Annotation // typical traces carry ≤ 2 string tags
	childBuf [8]ChildSpan  // a single-leg request tree fits inline
	last     time.Duration
	retained bool // set by Finish when the trace entered the ring

	// cmu guards Children and SpansDropped: unlike Mark/Annotate (owning
	// goroutine only), child spans are also written by node-side engine
	// goroutines joining the trace through a context, which may race the
	// owner and may even straggle past Finish. It is a pointer so the
	// Trace value stays copyable (copyTrace, the ring slots); the mutex
	// itself survives pool recycles, and a straggler's SpanRef detects
	// the recycle by trace ID and becomes a no-op instead of corrupting
	// the next request's trace.
	cmu *sync.Mutex
}

// SetGen records the snapshot generation serving the traced query.
func (t *Trace) SetGen(gen uint64) {
	if t == nil {
		return
	}
	t.Gen = gen
}

// SetQueueWait records how long the request queued before execution.
func (t *Trace) SetQueueWait(d time.Duration) {
	if t == nil {
		return
	}
	t.QueueWait = d
}

// SetOutcome records how the traced request ended; the tail sampler
// reads it at Finish.
func (t *Trace) SetOutcome(outcome string) {
	if t == nil {
		return
	}
	t.Outcome = outcome
}

// TraceID returns the trace's ID, or 0 on a nil trace.
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// JoinID is the join key histogram exemplars and wide events publish:
// the trace's ID when Finish retained it in the tracer's ring — the only
// case the ID resolves in /debug/traces — and 0 otherwise (nil trace,
// not yet finished, or dropped by tail sampling). Publishing JoinID
// instead of TraceID keeps the metric → trace → event join from dangling
// on fast-OK traces the sampler discards.
func (t *Trace) JoinID() uint64 {
	if t == nil || !t.retained {
		return 0
	}
	return t.ID
}

// Class buckets a trace for retention accounting and the /debug/traces
// outcome filter: "error" for any non-ok outcome, else "slow" when the
// Slow stamp is set, else "ok".
func (t *Trace) Class() string {
	switch {
	case t.Outcome != "" && t.Outcome != "ok":
		return "error"
	case t.Slow:
		return "slow"
	default:
		return "ok"
	}
}

// Mark closes the current span under the given name: it covers the time
// since the previous mark (or the trace start).
func (t *Trace) Mark(name string) {
	if t == nil {
		return
	}
	now := time.Since(t.Begin)
	t.Spans = append(t.Spans, Span{Name: name, Start: t.last, Dur: now - t.last})
	t.last = now
}

// Annotate tags the trace with a key-value pair.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.Annots = append(t.Annots, Annotation{Key: key, Value: value})
}

// MaxChildSpans caps a trace's span tree. A wide scatter can issue more
// legs than a waterfall can usefully show, and recording each as a span
// would bloat the pooled trace, so the tree holds the interesting
// attempts (legs, hedges, retries, recomputes, summaries) and
// everything past the cap increments SpansDropped instead.
const MaxChildSpans = 96

// SpanRef is a value handle on one child span of one trace incarnation.
// The zero SpanRef is invalid and every method on it is a no-op, which
// is how span instrumentation stays free when tracing is off (a nil
// trace starts only invalid refs). A ref remembers the trace ID it was
// created under: after the trace is released and recycled for another
// request, a straggling ref's writes miss (ID mismatch) instead of
// scribbling on the new request's tree. The ref carries the tree mutex
// itself — the one pointer on a pooled Trace that survives recycling —
// so a straggler synchronizes without ever reading the recycled
// struct's fields unlocked.
type SpanRef struct {
	t   *Trace
	mu  *sync.Mutex
	tid uint64
	id  int32
}

// Valid reports whether the ref names a live span slot.
func (s SpanRef) Valid() bool { return s.t != nil && s.id > 0 }

// ID returns the span's 1-based id within its trace, 0 for an invalid
// ref — the value propagated across the cluster transport as
// Call.ParentSpan.
func (s SpanRef) ID() int32 {
	if !s.Valid() {
		return 0
	}
	return s.id
}

// StartSpan opens a child span of the trace root, starting now.
func (t *Trace) StartSpan(name string) SpanRef {
	return t.StartSpanAt(name, time.Now())
}

// StartSpanAt opens a child span of the trace root with an explicit
// start time — the reconstruction path for attempts whose span is
// materialized after the fact (a hedged leg's primary, measured before
// anyone knew the race would make it worth a span).
func (t *Trace) StartSpanAt(name string, at time.Time) SpanRef {
	return t.startSpan(0, name, at)
}

// StartChild opens a span nested under s, starting now.
func (s SpanRef) StartChild(name string) SpanRef {
	return s.StartChildAt(name, time.Now())
}

// StartChildAt opens a span nested under s with an explicit start time.
// It goes through the ref's captured mutex, never the trace's own field:
// a straggling ref may race the trace's recycling, and the mutex object
// is the only part of a pooled Trace that is never rewritten.
func (s SpanRef) StartChildAt(name string, at time.Time) SpanRef {
	if !s.Valid() {
		return SpanRef{}
	}
	return s.t.startSpanMu(s.mu, s.tid, s.id, name, at)
}

func (t *Trace) startSpan(parent int32, name string, at time.Time) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if t.cmu == nil {
		// Traces built by Tracer.Start always carry the mutex; this arms
		// hand-rolled test traces. Only the trace's owner goroutine calls
		// this path (root-span creation) — concurrency begins once a ref
		// has been shared, and shared refs re-enter via startSpanMu.
		t.cmu = new(sync.Mutex)
	}
	return t.startSpanMu(t.cmu, t.ID, parent, name, at)
}

// startSpanMu appends a span under mu (the trace's tree mutex, captured
// by the caller before any recycling race was possible). tid guards the
// incarnation: a recycled trace hands back an invalid ref.
func (t *Trace) startSpanMu(mu *sync.Mutex, tid uint64, parent int32, name string, at time.Time) SpanRef {
	mu.Lock()
	defer mu.Unlock()
	if t.ID != tid {
		return SpanRef{} // the trace was recycled under the caller's ref
	}
	if parent > 0 && int(parent) > len(t.Children) {
		return SpanRef{} // stale parent
	}
	if len(t.Children) >= MaxChildSpans {
		t.SpansDropped++
		return SpanRef{}
	}
	id := int32(len(t.Children) + 1)
	t.Children = append(t.Children, ChildSpan{
		ID:        id,
		Parent:    parent,
		Name:      name,
		Partition: -1,
		Start:     at.Sub(t.Begin),
		Dur:       -1,
	})
	return SpanRef{t: t, mu: mu, tid: tid, id: id}
}

// mutate applies fn to the span under the tree lock, verifying the
// trace has not been recycled out from under the ref.
func (s SpanRef) mutate(fn func(cs *ChildSpan)) {
	if !s.Valid() {
		return
	}
	s.mu.Lock()
	if s.t.ID == s.tid && int(s.id) <= len(s.t.Children) {
		fn(&s.t.Children[s.id-1])
	}
	s.mu.Unlock()
}

// SetKind classifies the attempt (primary, hedge, retry, repin,
// recompute, engine, scan).
func (s SpanRef) SetKind(kind string) { s.mutate(func(cs *ChildSpan) { cs.Kind = kind }) }

// SetPartition records the cluster partition the span ran against.
func (s SpanRef) SetPartition(p int) { s.mutate(func(cs *ChildSpan) { cs.Partition = int32(p) }) }

// SetGen records the snapshot generation that served the span.
func (s SpanRef) SetGen(gen uint64) { s.mutate(func(cs *ChildSpan) { cs.Gen = gen }) }

// SetEntries records how many entries (rows, cells) the span moved.
func (s SpanRef) SetEntries(n int) { s.mutate(func(cs *ChildSpan) { cs.Entries = int32(n) }) }

// SetOutcome records how the attempt ended.
func (s SpanRef) SetOutcome(outcome string) { s.mutate(func(cs *ChildSpan) { cs.Outcome = outcome }) }

// Annotate tags the span. Unlike the setters this allocates; reserve it
// for low-volume spans (summaries, errors).
func (s SpanRef) Annotate(key, value string) {
	s.mutate(func(cs *ChildSpan) { cs.Annots = append(cs.Annots, Annotation{Key: key, Value: value}) })
}

// Link records s and o as the two sides of one hedge race. The link is
// reciprocal; linking across two different traces is ignored.
func (s SpanRef) Link(o SpanRef) {
	if !s.Valid() || !o.Valid() || s.t != o.t {
		return
	}
	s.mutate(func(cs *ChildSpan) { cs.Link = o.id })
	o.mutate(func(cs *ChildSpan) { cs.Link = s.id })
}

// Finish closes the span now. Finishing is once: later Finish calls on
// an already-closed span are no-ops, so reconstruction paths can close
// defensively.
func (s SpanRef) Finish() {
	s.mutate(func(cs *ChildSpan) {
		if cs.Dur < 0 {
			cs.Dur = time.Since(s.t.Begin) - cs.Start
		}
	})
}

// FinishDur closes the span with an explicitly measured duration (the
// reconstruction path for retroactive spans). Same finish-once rule.
func (s SpanRef) FinishDur(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mutate(func(cs *ChildSpan) {
		if cs.Dur < 0 {
			cs.Dur = d
		}
	})
}

// CheckSpans validates the structural invariants of the trace's span
// tree — the chaos suite's well-formedness oracle. It reports the first
// violation: a parent or link naming no span (orphan leg), a parent not
// created before its child, an unfinished span, or a non-reciprocal
// hedge link.
func (t *Trace) CheckSpans() error {
	if t == nil {
		return nil
	}
	for i := range t.Children {
		cs := &t.Children[i]
		if cs.ID != int32(i+1) {
			return fmt.Errorf("obs: span %d carries id %d", i+1, cs.ID)
		}
		if cs.Parent < 0 || cs.Parent >= cs.ID {
			return fmt.Errorf("obs: span %d (%s) has invalid parent %d", cs.ID, cs.Name, cs.Parent)
		}
		if cs.Dur < 0 {
			return fmt.Errorf("obs: span %d (%s, kind %s) unfinished", cs.ID, cs.Name, cs.Kind)
		}
		if cs.Link != 0 {
			if cs.Link < 1 || int(cs.Link) > len(t.Children) {
				return fmt.Errorf("obs: span %d links to missing span %d", cs.ID, cs.Link)
			}
			if peer := &t.Children[cs.Link-1]; peer.Link != cs.ID {
				return fmt.Errorf("obs: span %d → %d hedge link not reciprocal", cs.ID, cs.Link)
			}
		}
	}
	return nil
}

// Tracer keeps the most recent completed traces in a fixed-size ring
// buffer. Start and Finish are allocation-free in steady state: Start
// draws the Trace from a pool, Finish copies a retained trace by value
// into its ring slot, and Release returns the caller's trace to the
// pool once the query is done with it — the serving hot path generates
// no per-query trace garbage, which matters because the tracer's whole
// cost is otherwise GC pressure, not CPU. Publishing claims a slot with
// an atomic counter; the copy in and out of a slot is guarded by that
// slot's own mutex, so concurrent batch workers only ever contend when
// they land on the same slot. Recent copies the ring for inspection. A
// nil *Tracer is valid and disables tracing entirely.
type Tracer struct {
	capacity int
	seq      atomic.Uint64
	finished atomic.Uint64

	// next counts slot claims; claim i lands in ring[i % capacity]. A
	// reader can observe a claimed-but-not-yet-stored slot, in which
	// case Recent sees the slot's previous trace (or nothing) —
	// acceptable for a diagnostic ring, and sequential Finish/Recent
	// pairs are exact.
	next atomic.Uint64
	ring []traceSlot

	// Tail sampling (zero value: keep everything). The ring is small and
	// a busy engine finishes thousands of traces per second, so without
	// tail sampling the one trace an operator needs — the slow or failed
	// request behind a latency spike — is evicted by a flood of
	// uninteresting fast successes within milliseconds. The policy keeps
	// every error and slow trace and probabilistically drops fast-OK
	// traces before they enter the ring.
	policy  TailSamplingPolicy
	okSeen  atomic.Uint64 // fast-OK traces seen, drives 1-in-N retention
	kept    [3]atomic.Uint64
	dropped [3]atomic.Uint64
}

// TailSamplingPolicy decides, at Finish time, whether a completed trace
// enters the ring.
type TailSamplingPolicy struct {
	// SlowThreshold classifies a trace as slow when its total duration
	// reaches it; slow traces are always retained. 0 disables the slow
	// class.
	SlowThreshold time.Duration
	// KeepOneInN retains one in N fast-OK traces (deterministic counter
	// sampling); 0 or 1 retains all. Error and slow traces are always
	// retained regardless.
	KeepOneInN uint64
}

// enabled reports whether the policy can drop anything.
func (p TailSamplingPolicy) enabled() bool { return p.KeepOneInN > 1 }

// traceSlot is one ring entry: the retained trace held by value, so the
// ring owns its memory and evicting a trace never creates garbage.
type traceSlot struct {
	mu sync.Mutex
	ok bool // a trace has been stored here
	t  Trace
}

// tracePool recycles Trace objects across Start/Release cycles. Traces
// are pool-agnostic (no per-tracer state), so one process-wide pool
// serves every tracer.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// copyTrace copies src into dst by value, re-pointing the span,
// annotation and child slices at dst's inline buffers when src's still
// live in its own (the common, ≤ 5-span / ≤ 8-child case). A slice that
// overflowed to the heap is shared instead: after Finish nothing
// appends to it — a recycled trace is reset to its inline buffer and
// growth allocates a fresh array — so the shared array is immutable.
// Children is the exception to overflow sharing: a straggling SpanRef
// (a hedge duplicate's engine goroutine, say) may mutate a child
// element after Finish, so the destination always takes its own copy —
// inline when it fits, else into a heap array the destination owns
// (ring slots recycle theirs across evictions, so steady-state
// publication still allocates nothing).
func copyTrace(dst, src *Trace) {
	ns, na, nc := len(src.Spans), len(src.Annots), len(src.Children)
	spare := dst.Children
	*dst = *src
	if ns <= len(dst.spanBuf) {
		dst.Spans = dst.spanBuf[:ns]
	}
	if na <= len(dst.annotBuf) {
		dst.Annots = dst.annotBuf[:na]
	}
	switch {
	case nc <= len(dst.childBuf):
		// The struct copy above already brought the elements along when
		// src was inline; when src overflowed, pull them in.
		dst.Children = dst.childBuf[:nc]
		copy(dst.Children, src.Children)
	case cap(spare) >= nc:
		dst.Children = spare[:nc]
		copy(dst.Children, src.Children)
	default:
		dst.Children = make([]ChildSpan, nc)
		copy(dst.Children, src.Children)
	}
}

// classIndex maps a trace class to its retention-counter slot.
func classIndex(class string) int {
	switch class {
	case "error":
		return 2
	case "slow":
		return 1
	default:
		return 0
	}
}

var traceClasses = [3]string{"ok", "slow", "error"}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 256

// NewTracer builds a tracer retaining the last capacity traces, with no
// tail sampling: every finished trace enters the ring.
func NewTracer(capacity int) *Tracer {
	return NewTracerTailSampled(capacity, TailSamplingPolicy{})
}

// NewTracerTailSampled builds a tracer that applies policy at Finish.
func NewTracerTailSampled(capacity int, policy TailSamplingPolicy) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity, ring: make([]traceSlot, capacity), policy: policy}
}

// Start begins a new trace, drawn from the process-wide pool. On a nil
// tracer it returns nil, which every Trace method accepts.
func (tz *Tracer) Start(label string) *Trace {
	if tz == nil {
		return nil
	}
	t := tracePool.Get().(*Trace)
	// The tree mutex survives recycles (one allocation per pooled object,
	// ever), and the reset runs under it so a straggling SpanRef from the
	// trace's previous life observes either the old ID or the new one,
	// never a torn struct.
	mu := t.cmu
	if mu == nil {
		mu = new(sync.Mutex)
	}
	mu.Lock()
	*t = Trace{
		ID:    tz.seq.Add(1),
		Label: label,
		Begin: time.Now(),
	}
	t.cmu = mu
	t.Spans = t.spanBuf[:0]
	t.Annots = t.annotBuf[:0]
	t.Children = t.childBuf[:0]
	mu.Unlock()
	return t
}

// Release returns a trace obtained from Start to the pool. Call it once
// the query is completely done with the trace — after Finish AND after
// the last JoinID/field read (the serve engine releases after the wide
// event is emitted). The trace must not be used afterwards. Release is
// optional: an unreleased trace is simply garbage, exactly the pre-pool
// behaviour. Nil tracer or nil trace are no-ops.
func (tz *Tracer) Release(t *Trace) {
	if tz == nil || t == nil {
		return
	}
	tracePool.Put(t)
}

// Finish stamps the trace's total duration and slow classification,
// consults the tail-sampling policy, and — when the trace is retained —
// marks it (see JoinID) and publishes it into the ring, evicting the
// oldest trace once the ring is full. Dropped traces still count in
// Finished and the retention counters, so the drop rate is observable.
// Nil tracer or nil trace are no-ops. The retention decision lands
// before the trace becomes visible, so callers publish the trace ID
// elsewhere (exemplars, wide events) only after Finish, via JoinID.
func (tz *Tracer) Finish(t *Trace) {
	if tz == nil || t == nil {
		return
	}
	t.Total = time.Since(t.Begin)
	if tz.policy.SlowThreshold > 0 && t.Total >= tz.policy.SlowThreshold {
		t.Slow = true
	}
	tz.finished.Add(1)
	ci := classIndex(t.Class())
	if ci == 0 && tz.policy.enabled() && (tz.okSeen.Add(1)-1)%tz.policy.KeepOneInN != 0 {
		tz.dropped[ci].Add(1)
		return
	}
	tz.kept[ci].Add(1)
	t.retained = true // before the copy: readers must never see it unset
	slot := tz.next.Add(1) - 1
	s := &tz.ring[slot%uint64(tz.capacity)]
	s.mu.Lock()
	// The copy runs under the tree lock so concurrent child-span writers
	// (a node-side engine goroutine finishing late) never race it; any
	// span still open when the request publishes is closed in the COPY as
	// abandoned — the request is over, so that is the span's true extent —
	// keeping every retained tree well-formed while the straggler's own
	// late Finish lands only on the private, about-to-be-released object.
	if t.cmu != nil {
		t.cmu.Lock()
	}
	copyTrace(&s.t, t)
	for i := range s.t.Children {
		if cs := &s.t.Children[i]; cs.Dur < 0 {
			cs.Dur = t.Total - cs.Start
			if cs.Dur < 0 {
				cs.Dur = 0
			}
			if cs.Outcome == "" {
				cs.Outcome = "abandoned"
			}
		}
	}
	if t.cmu != nil {
		t.cmu.Unlock()
	}
	s.ok = true
	s.mu.Unlock()
}

// TraceRetention reports how many finished traces of one class the tail
// sampler kept and dropped.
type TraceRetention struct {
	Kept    uint64 `json:"kept"`
	Dropped uint64 `json:"dropped"`
}

// Retention returns the per-class (ok, slow, error) retention counters
// accumulated since the tracer was built.
func (tz *Tracer) Retention() map[string]TraceRetention {
	if tz == nil {
		return nil
	}
	out := make(map[string]TraceRetention, len(traceClasses))
	for i, class := range traceClasses {
		out[class] = TraceRetention{Kept: tz.kept[i].Load(), Dropped: tz.dropped[i].Load()}
	}
	return out
}

// Finished returns the number of traces completed so far (including
// those already evicted from the ring).
func (tz *Tracer) Finished() uint64 {
	if tz == nil {
		return 0
	}
	return tz.finished.Load()
}

// Recent returns the retained traces, newest first. The traces are
// fresh copies owned by the caller — the ring keeps recycling slots
// underneath without disturbing them.
func (tz *Tracer) Recent() []*Trace {
	if tz == nil {
		return nil
	}
	claimed := tz.next.Load()
	n := claimed
	if n > uint64(tz.capacity) {
		n = uint64(tz.capacity)
	}
	out := make([]*Trace, 0, n)
	// Walk the ring backwards from the most recently claimed slot,
	// skipping slots whose store hasn't landed yet.
	for i := uint64(0); i < n; i++ {
		s := &tz.ring[(claimed-1-i)%uint64(tz.capacity)]
		s.mu.Lock()
		if s.ok {
			c := new(Trace)
			copyTrace(c, &s.t)
			out = append(out, c)
		}
		s.mu.Unlock()
	}
	return out
}

// Find returns a fresh copy of the retained trace with the given ID, or
// nil if the ring no longer (or never) holds it — the resolver behind
// /debug/traces?trace_id= and the waterfall endpoint, joining an
// exemplar's or wide event's trace_id back to its trace. It scans the
// ring newest-first, so of two traces that ever shared an ID (they
// cannot: IDs are sequence numbers) the newer would win.
func (tz *Tracer) Find(id uint64) *Trace {
	if tz == nil || id == 0 {
		return nil
	}
	claimed := tz.next.Load()
	n := claimed
	if n > uint64(tz.capacity) {
		n = uint64(tz.capacity)
	}
	for i := uint64(0); i < n; i++ {
		s := &tz.ring[(claimed-1-i)%uint64(tz.capacity)]
		s.mu.Lock()
		if s.ok && s.t.ID == id {
			c := new(Trace)
			copyTrace(c, &s.t)
			s.mu.Unlock()
			return c
		}
		s.mu.Unlock()
	}
	return nil
}
