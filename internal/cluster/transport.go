package cluster

import (
	"context"
	"fmt"
	"strconv"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/faultinject"
	"fairjob/internal/index"
	"fairjob/internal/serve"
)

// Op selects what a Call asks a partition node to do.
type Op int

const (
	// OpScan is batched, resumable sorted access: read one block from
	// each of several list fragments, every block starting at a
	// caller-owned cursor. The coordinator's distributed TA refills all
	// of a partition's drained fragments of one list family with one of
	// these.
	OpScan Op = iota
	// OpLookup is batched random access: for each requested key, return
	// its value in every list fragment this partition owns for one
	// dimension — a full row from this partition's point of view, which
	// the coordinator merges and caches so one scatter answers every
	// later random access for those keys.
	OpLookup
	// OpCells returns every defined cell of the partition's sub-table —
	// the gather behind Problem 2 comparisons and behind the degraded
	// recompute when partitions are missing. A caller that already holds
	// the cells of generation HaveGen gets back only the generation.
	OpCells
	// OpServe passes a full serve.Request through to the partition's
	// local engine — the single-leg fast path (one partition, or a
	// page-local mitigate routed to its owner).
	OpServe
)

func (o Op) String() string {
	switch o {
	case OpScan:
		return "scan"
	case OpLookup:
		return "lookup"
	case OpCells:
		return "cells"
	case OpServe:
		return "serve"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Call is one simulated RPC to a partition node. PinGen carries the
// all-or-nothing generation pin: 0 means "pin to whatever you serve and
// tell me", any other value means "serve exactly this generation or
// refuse with ErrGenMismatch".
type Call struct {
	Op     Op
	PinGen uint64

	// OpScan / OpLookup operands: the list family, then one block per
	// scan range (OpScan) or one row per key (OpLookup).
	Dim   compare.Dimension
	Scans []ScanRange
	Keys  []string

	// OpCells operand: the generation whose cells the caller already
	// holds (0 = none). A node still serving it replies without cells.
	HaveGen uint64

	// OpServe operand.
	Req serve.Request

	// Trace propagation. These are the wire schema a networked transport
	// would serialize: the coordinator's trace id and the id of the leg
	// span this call runs under, enough for the remote side to emit spans
	// that join the caller's tree. The in-process transport additionally
	// carries the live obs.SpanRef in the context (obs.ContextWithSpan),
	// which is what the node-side engine actually joins today.
	TraceID    uint64
	ParentSpan int32
}

// ScanRange names one block of sorted access: up to Count entries of
// the partition's fragment of list List, from sorted position Start.
type ScanRange struct {
	List, Start, Count int
}

// ListValue is one entry of an OpLookup row: the key's value in one of
// the partition's owned lists.
type ListValue struct {
	List  int
	Value float64
}

// Cell is one defined cell of a partition's sub-table.
type Cell struct {
	G string
	Q core.Query
	L core.Location
	V float64
}

// Reply is a node's answer to one Call. Gen always reports the
// generation that served it, which is how an unpinned first leg learns
// the pin for the rest of the request.
type Reply struct {
	Gen    uint64
	Blocks [][]index.Entry // OpScan: one block per Call.Scans range
	Rows   [][]ListValue   // OpLookup: one row per Call.Keys key
	Cells  []Cell          // OpCells: nil when Call.HaveGen was current
	Resp   serve.Response  // OpServe
}

// Transport delivers calls to partitions. The in-process LocalTransport
// is the only implementation today; the interface exists so a real
// network split later replaces one type, not the coordinator. Send must
// honor ctx — a canceled caller gets an error promptly even when the
// partition is stalled — and must be safe for concurrent use.
type Transport interface {
	Send(ctx context.Context, partition int, call Call) (Reply, error)
}

// LocalTransport is the simulated-RPC transport: calls are function
// calls into in-process nodes, with the cluster chaos failpoints
// compiled into the send path so tests can down, slow or flap
// individual partitions exactly where a network would fail. The
// partition id is the failpoint key.
type LocalTransport struct {
	nodes []*Node
}

// NewLocalTransport wraps in-process nodes as a Transport.
func NewLocalTransport(nodes []*Node) *LocalTransport {
	return &LocalTransport{nodes: nodes}
}

// Send delivers one call. The failpoint layout mirrors a real RPC:
// partition-down and partition-flap fire before the "wire" (the send
// errors, the node never sees the call), partition-slow fires on the
// serving side (the handler stalls, and a caller whose ctx expires —
// or whose hedge won — abandons the leg without waiting for it).
func (t *LocalTransport) Send(ctx context.Context, partition int, call Call) (Reply, error) {
	if partition < 0 || partition >= len(t.nodes) {
		return Reply{}, fmt.Errorf("cluster: no partition %d (have %d)", partition, len(t.nodes))
	}
	key := strconv.Itoa(partition)
	if err := faultinject.InjectKeyedErr(faultinject.ClusterPartitionDown, key); err != nil {
		return Reply{}, fmt.Errorf("%w: partition %d down: %v", ErrPartitionUnavailable, partition, err)
	}
	if err := faultinject.InjectKeyedErr(faultinject.ClusterPartitionFlap, key); err != nil {
		return Reply{}, fmt.Errorf("%w: partition %d flapped: %v", ErrPartitionUnavailable, partition, err)
	}
	type result struct {
		reply Reply
		err   error
	}
	done := make(chan result, 1)
	go func() {
		// The slow failpoint may sleep or block on a channel; it runs on
		// the serving goroutine so the select below can abandon the leg.
		_ = faultinject.InjectKeyedErr(faultinject.ClusterPartitionSlow, key)
		r, err := t.nodes[partition].Handle(ctx, call)
		done <- result{r, err}
	}()
	select {
	case <-ctx.Done():
		return Reply{}, ctx.Err()
	case res := <-done:
		return res.reply, res.err
	}
}
