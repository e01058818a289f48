package serve

import (
	"context"
	"errors"
	"fmt"
)

// This file defines the typed failure modes of the resilient serving
// path. The contract (DESIGN.md §10): every way a request can fail to
// produce an answer is a distinguishable error in Response.Err, matched
// with errors.Is against the sentinels below — callers never parse
// message strings, and a serving worker never dies for a per-request
// fault.

// resilienceError is a sentinel with a cause: errors.Is matches both
// the sentinel itself (pointer identity) and, through Unwrap, the
// standard context error it corresponds to, so
// errors.Is(resp.Err, context.DeadlineExceeded) keeps working for
// callers that think in context terms.
type resilienceError struct {
	msg   string
	cause error
}

func (e *resilienceError) Error() string { return e.msg }

func (e *resilienceError) Unwrap() error { return e.cause }

var (
	// ErrDeadlineExceeded reports that a request's deadline — its own
	// Request.Deadline, the engine's DefaultDeadline, or a deadline
	// already on the caller's context — expired before the answer was
	// computed. Unwraps to context.DeadlineExceeded.
	ErrDeadlineExceeded error = &resilienceError{"serve: deadline exceeded", context.DeadlineExceeded}
	// ErrCanceled reports that the caller's context was canceled before
	// the answer was computed. Unwraps to context.Canceled.
	ErrCanceled error = &resilienceError{"serve: request canceled", context.Canceled}
	// ErrOverloaded reports that the admission gate shed the request:
	// compute capacity was saturated and the wait queue full. The
	// request was never executed; retrying later (or against the result
	// cache) may succeed.
	ErrOverloaded = errors.New("serve: overloaded, request shed by admission gate")
	// ErrInternal is the class every recovered panic maps to; the
	// concrete Response.Err is an *InternalError carrying the panic
	// value, and errors.Is(err, ErrInternal) matches it.
	ErrInternal = errors.New("serve: internal error")
)

// InternalError is a panic recovered inside the engine's execute path,
// converted into a per-request failure so one crashing query cannot take
// down a batch or a serving worker.
type InternalError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("serve: internal error: recovered panic: %v", e.Value)
}

// Unwrap makes errors.Is(err, ErrInternal) match every recovered panic.
func (e *InternalError) Unwrap() error { return ErrInternal }

// ctxError maps a context failure to the package's typed sentinels,
// passing any other error through unchanged.
func ctxError(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	}
	return err
}

// outcomer lets error types outside this package (the cluster
// coordinator's partial-result error) carry their own wide-event
// outcome word without serve importing them.
type outcomer interface {
	RequestOutcome() string
}

// Outcome classifies a Response.Err into the wide-event outcome
// vocabulary: "ok", "shed", "deadline", "canceled", "panic", "partial"
// (errors implementing RequestOutcome() string), or "error". The engine
// uses it for its own metrics and events; the loadgen harness and the
// cluster coordinator share it so every layer buckets failures
// identically.
func Outcome(err error) string {
	if err == nil {
		return "ok" // before oc, which escapes: a success allocates nothing
	}
	var oc outcomer
	switch {
	case errors.As(err, &oc):
		return oc.RequestOutcome()
	case errors.Is(err, ErrOverloaded):
		return "shed"
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrInternal):
		return "panic"
	default:
		return "error"
	}
}
