package serve

// GateLoad reports the admission gate's queued waiters and held weight
// — (0, 0) when admission control is off — so tests can assert a run
// drained the gate instead of leaking a grant or a waiter.
func GateLoad(e *Engine) (queued int, held int64) {
	g := e.lc.gate
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting, g.held
}
