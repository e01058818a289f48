package obs

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// This file is the continuous profiler (DESIGN.md §13): a background
// loop that captures CPU, heap, goroutine, mutex and block profiles on a
// fixed cadence into a bounded per-kind ring, so the admin endpoint can
// answer "what was the process doing N minutes ago" without anyone
// having run `go tool pprof` in advance. CPU profiles carry the pprof
// labels the serve engine attaches per request (serve.ProfileLabels), so
// a captured window decomposes by request kind; heap captures
// additionally feed a stack-keyed allocation delta between consecutive
// rounds — the "what allocated since last time" view that absolute heap
// profiles hide behind long-lived state.

// Profile kinds the capture round produces. CPU is captured by sampling
// a window of execution; the others are instantaneous runtime snapshots.
const (
	ProfileCPU       = "cpu"
	ProfileHeap      = "heap"
	ProfileGoroutine = "goroutine"
	ProfileMutex     = "mutex"
	ProfileBlock     = "block"
)

// profileKinds is the capture order of one round. CPU runs first because
// it is the only capture that takes wall time; the instantaneous
// snapshots then describe the process right after the sampled window.
var profileKinds = []string{ProfileCPU, ProfileHeap, ProfileGoroutine, ProfileMutex, ProfileBlock}

// DefaultProfileRing is how many profiles of each kind the ring keeps
// when ProfilerOptions.Ring is zero.
const DefaultProfileRing = 4

// ProfilerOptions configures NewProfiler. The zero value is usable: a
// 60s cadence with a 5s CPU window, four profiles per kind, no metrics,
// and mutex/block profiling left at the process's current rates.
type ProfilerOptions struct {
	// Registry, when non-nil, receives profiler telemetry:
	// profiler_captures_total{kind=…}, profiler_errors_total{kind=…},
	// the profiler_ring_profiles gauge and the
	// profiler_last_capture_unixtime gauge.
	Registry *Registry
	// Interval is the cadence between capture rounds (default 60s).
	Interval time.Duration
	// CPUDuration is the CPU sampling window per round (default 5s). It
	// is clamped to Interval so a round never overruns its slot.
	CPUDuration time.Duration
	// Ring bounds how many profiles of each kind are retained (default
	// DefaultProfileRing). Older profiles fall off; memory is bounded by
	// Ring × kinds × profile size.
	Ring int
	// MutexFraction, when positive, is passed to
	// runtime.SetMutexProfileFraction so mutex profiles have content.
	// Zero leaves the process setting untouched.
	MutexFraction int
	// BlockRate, when positive, is passed to
	// runtime.SetBlockProfileRate so block profiles have content. Zero
	// leaves the process setting untouched.
	BlockRate int
}

// CapturedProfile is one retained profile: the raw gzipped pprof
// protobuf plus capture metadata. Data is omitted from JSON listings —
// it is fetched by ID as a binary document.
type CapturedProfile struct {
	ID    uint64    `json:"id"`
	Kind  string    `json:"kind"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Size  int       `json:"size"`
	Data  []byte    `json:"-"`
}

// HeapDeltaSite is one allocation site of a heap delta, attributed to
// the innermost resolvable function of its stack.
type HeapDeltaSite struct {
	Func         string `json:"func"`
	AllocBytes   int64  `json:"alloc_bytes"`
	AllocObjects int64  `json:"alloc_objects"`
}

// HeapDelta is the allocation growth between two consecutive heap
// captures: per-site cumulative alloc deltas, largest first. Sites that
// allocated nothing in the window are omitted.
type HeapDelta struct {
	From  time.Time       `json:"from"`
	To    time.Time       `json:"to"`
	Sites []HeapDeltaSite `json:"sites"`
}

// heapDeltaTopSites bounds how many sites a HeapDelta reports.
const heapDeltaTopSites = 20

// memKey identifies an allocation site by its sampled call stack.
type memKey [32]uintptr

type memCounts struct {
	bytes, objects int64
}

// Profiler captures profiles continuously. Create with NewProfiler,
// start the background loop with Start, stop it with Stop (which waits
// for an in-flight round to finish — the graceful-shutdown contract the
// CLI's SIGTERM path relies on). All methods are safe for concurrent
// use; the admin endpoint reads the ring while the loop appends to it.
type Profiler struct {
	interval time.Duration
	cpuDur   time.Duration
	ringSize int

	mu       sync.Mutex
	rings    map[string][]*CapturedProfile
	nextID   uint64
	lastMem  map[memKey]memCounts
	lastHeap time.Time
	delta    *HeapDelta
	rounds   uint64

	capturesBy map[string]*Counter
	errorsBy   map[string]*Counter
	lastUnix   *Gauge

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewProfiler returns a profiler that is configured but not running;
// call Start to begin the capture loop, or CaptureRound to take one
// round synchronously (tests, one-shot tools).
func NewProfiler(o ProfilerOptions) *Profiler {
	if o.Interval <= 0 {
		o.Interval = 60 * time.Second
	}
	if o.CPUDuration <= 0 {
		o.CPUDuration = 5 * time.Second
	}
	if o.CPUDuration > o.Interval {
		o.CPUDuration = o.Interval
	}
	if o.Ring <= 0 {
		o.Ring = DefaultProfileRing
	}
	if o.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(o.MutexFraction)
	}
	if o.BlockRate > 0 {
		runtime.SetBlockProfileRate(o.BlockRate)
	}
	p := &Profiler{
		interval:   o.Interval,
		cpuDur:     o.CPUDuration,
		ringSize:   o.Ring,
		rings:      make(map[string][]*CapturedProfile, len(profileKinds)),
		capturesBy: make(map[string]*Counter, len(profileKinds)),
		errorsBy:   make(map[string]*Counter, len(profileKinds)),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if r := o.Registry; r != nil {
		for _, kind := range profileKinds {
			p.capturesBy[kind] = r.Counter(Name("profiler_captures_total", "kind", kind))
			p.errorsBy[kind] = r.Counter(Name("profiler_errors_total", "kind", kind))
		}
		p.lastUnix = r.Gauge("profiler_last_capture_unixtime")
		r.GaugeFunc("profiler_ring_profiles", func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			n := 0
			for _, ring := range p.rings {
				n += len(ring)
			}
			return float64(n)
		})
	}
	return p
}

// Start launches the capture loop on a background goroutine. The first
// round begins one interval after Start — a process's first seconds are
// dominated by its own boot, which is rarely the window worth keeping.
// Start is idempotent.
func (p *Profiler) Start() {
	p.startOnce.Do(func() {
		go p.loop()
	})
}

func (p *Profiler) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-p.stop
		cancel()
	}()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.CaptureRound(ctx)
		}
	}
}

// Stop halts the capture loop and waits for an in-flight round to
// finish. A round's CPU window is interrupted (the context cancels the
// wait), so Stop returns promptly even mid-window. Stop is idempotent
// and safe to call on a profiler that was never started.
func (p *Profiler) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.startOnce.Do(func() { close(p.done) }) // never started: nothing to wait for
	<-p.done
}

// CaptureRound synchronously captures one profile of every kind,
// appending each to its ring. The ctx bounds the CPU sampling window —
// cancellation cuts the window short but still keeps the partial
// profile, which is exactly what a SIGTERM wants: whatever was sampled,
// flushed.
func (p *Profiler) CaptureRound(ctx context.Context) {
	for _, kind := range profileKinds {
		if err := p.captureOne(ctx, kind); err != nil {
			if c := p.errorsBy[kind]; c != nil {
				c.Inc()
			}
			continue
		}
		if c := p.capturesBy[kind]; c != nil {
			c.Inc()
		}
	}
	p.mu.Lock()
	p.rounds++
	p.mu.Unlock()
	if p.lastUnix != nil {
		p.lastUnix.Set(float64(time.Now().Unix()))
	}
}

// CaptureHeap takes one heap capture — and advances the allocation-delta
// baseline — without sampling a CPU window. The load harness calls this
// right before its measured phase so LatestHeapDelta spans exactly the
// run, not whatever happened since the previous full round.
func (p *Profiler) CaptureHeap() {
	if err := p.captureOne(context.Background(), ProfileHeap); err != nil {
		if c := p.errorsBy[ProfileHeap]; c != nil {
			c.Inc()
		}
		return
	}
	if c := p.capturesBy[ProfileHeap]; c != nil {
		c.Inc()
	}
}

func (p *Profiler) captureOne(ctx context.Context, kind string) error {
	start := time.Now()
	var buf bytes.Buffer
	switch kind {
	case ProfileCPU:
		// Only one CPU profile can run process-wide; if /debug/pprof/profile
		// (or a test) holds it, record the error and move on — the next
		// round retries.
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		select {
		case <-time.After(p.cpuDur):
		case <-ctx.Done():
		}
		pprof.StopCPUProfile()
	case ProfileHeap:
		p.recordHeapDelta(start)
		if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			return err
		}
	default:
		prof := pprof.Lookup(kind)
		if prof == nil {
			return fmt.Errorf("obs: no such profile %q", kind)
		}
		if err := prof.WriteTo(&buf, 0); err != nil {
			return err
		}
	}
	p.append(&CapturedProfile{
		Kind:  kind,
		Start: start,
		End:   time.Now(),
		Size:  buf.Len(),
		Data:  buf.Bytes(),
	})
	return nil
}

func (p *Profiler) append(cp *CapturedProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	cp.ID = p.nextID
	ring := append(p.rings[cp.Kind], cp)
	if len(ring) > p.ringSize {
		ring = ring[len(ring)-p.ringSize:]
	}
	p.rings[cp.Kind] = ring
}

// recordHeapDelta snapshots runtime.MemProfile and, when a previous
// snapshot exists, computes the per-site allocation growth since it.
// Using the raw records rather than diffing two pprof protobufs keeps
// the computation allocation-light and symbol resolution lazy: only the
// top sites of the delta are ever symbolized.
func (p *Profiler) recordHeapDelta(now time.Time) {
	// The memory profile is published lazily — records can lag the live
	// heap by up to two GC cycles, which makes short windows read as "no
	// allocation". One forced GC per capture (at most one per interval)
	// pins the window edge to the present.
	runtime.GC()
	var records []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for {
		records = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(records, true)
		if ok {
			records = records[:n]
			break
		}
	}
	cur := make(map[memKey]memCounts, len(records))
	type site struct {
		key memKey
		d   memCounts
	}
	var grown []site
	p.mu.Lock()
	prev, prevAt := p.lastMem, p.lastHeap
	p.mu.Unlock()
	for _, r := range records {
		k := memKey(r.Stack0)
		c := cur[k]
		c.bytes += r.AllocBytes
		c.objects += r.AllocObjects
		cur[k] = c
	}
	if prev != nil {
		for k, c := range cur {
			d := memCounts{bytes: c.bytes - prev[k].bytes, objects: c.objects - prev[k].objects}
			if d.bytes > 0 {
				grown = append(grown, site{key: k, d: d})
			}
		}
		sort.Slice(grown, func(i, j int) bool { return grown[i].d.bytes > grown[j].d.bytes })
		if len(grown) > heapDeltaTopSites {
			grown = grown[:heapDeltaTopSites]
		}
		delta := &HeapDelta{From: prevAt, To: now, Sites: make([]HeapDeltaSite, 0, len(grown))}
		for _, s := range grown {
			delta.Sites = append(delta.Sites, HeapDeltaSite{
				Func:         siteFunc(s.key),
				AllocBytes:   s.d.bytes,
				AllocObjects: s.d.objects,
			})
		}
		p.mu.Lock()
		p.delta = delta
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.lastMem, p.lastHeap = cur, now
	p.mu.Unlock()
}

// siteFunc names an allocation site: the innermost stack frame that
// resolves to a function, skipping runtime-internal malloc frames.
func siteFunc(k memKey) string {
	for _, pc := range k {
		if pc == 0 {
			break
		}
		f := runtime.FuncForPC(pc)
		if f == nil {
			continue
		}
		name := f.Name()
		switch name {
		case "runtime.mallocgc", "runtime.makeslice", "runtime.growslice",
			"runtime.newobject", "runtime.makemap", "runtime.mapassign":
			continue
		}
		return name
	}
	return "unknown"
}

// List returns capture metadata for every retained profile, newest
// first, with the profile bodies elided.
func (p *Profiler) List() []CapturedProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []CapturedProfile
	for _, ring := range p.rings {
		for _, cp := range ring {
			meta := *cp
			meta.Data = nil
			out = append(out, meta)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Get returns the retained profile with the given ID.
func (p *Profiler) Get(id uint64) (*CapturedProfile, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ring := range p.rings {
		for _, cp := range ring {
			if cp.ID == id {
				return cp, true
			}
		}
	}
	return nil, false
}

// Latest returns the newest retained profile of the given kind.
func (p *Profiler) Latest(kind string) (*CapturedProfile, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ring := p.rings[kind]
	if len(ring) == 0 {
		return nil, false
	}
	return ring[len(ring)-1], true
}

// LatestHeapDelta returns the allocation delta between the two most
// recent heap captures, or false before two rounds have run.
func (p *Profiler) LatestHeapDelta() (*HeapDelta, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delta, p.delta != nil
}

// Rounds returns how many capture rounds have completed.
func (p *Profiler) Rounds() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rounds
}
