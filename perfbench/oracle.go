package main

import (
	"context"
	"fmt"
	"math"

	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// The oracle runs after the timed phases, so it adds nothing to them. It
// replays sampled reads against a reference that shares no cache with
// the target and checks the documented contracts:
//   - engine workloads: a quantify answer equals the Naive answer
//     (TA≡FA≡NRA≡Naive, see checkTopK); compare and mitigate answers
//     equal a cache-less engine's over the snapshot of the response's
//     generation;
//   - cluster: every sampled answer equals, byte for byte, a single
//     cache-less engine's over the same table (coordinator≡engine).

// refSource returns a cache-less reference engine for a response
// generation, or nil when the generation is unknown.
type refSource func(gen uint64) *serve.Engine

// engineRefs serves generation-pinned references from the snapshots an
// engine published; each reference engine is built once.
func engineRefs(snaps map[uint64]*serve.Snapshot) refSource {
	built := map[uint64]*serve.Engine{}
	return func(gen uint64) *serve.Engine {
		if e, ok := built[gen]; ok {
			return e
		}
		s, ok := snaps[gen]
		if !ok {
			return nil
		}
		e := serve.NewEngine(s, serve.Options{CacheSize: -1})
		built[gen] = e
		return e
	}
}

// fingerprint reduces a response to its answer-bearing fields. Gen and
// CacheHit are left out: generations are process-unique, so two correct
// servers legitimately disagree on them.
func fingerprint(r serve.Response) string {
	errMsg := ""
	if r.Err != nil {
		errMsg = r.Err.Error()
	}
	mit := ""
	if r.Mitigation != nil {
		mit = fmt.Sprintf("%+v", *r.Mitigation)
	}
	return fmt.Sprintf("results=%+v stats=%+v cmp=%+v mit=%s err=%q", r.Results, r.Stats, r.Comparison, mit, errMsg)
}

// check verifies one response to req. exact selects the coordinator
// contract (every field, Stats included); otherwise a quantify answer is
// compared with Naive's results and the rest field by field.
func check(ref *serve.Engine, req serve.Request, got serve.Response, exact bool) error {
	if got.Err != nil {
		return fmt.Errorf("request failed: %w", got.Err)
	}
	if exact {
		want := ref.DoCtx(context.Background(), req)
		if fingerprint(want) != fingerprint(got) {
			return fmt.Errorf("answer differs from the single engine:\n got  %s\n want %s", fingerprint(got), fingerprint(want))
		}
		return nil
	}
	if req.Problem == serve.Quantify {
		return checkTopK(ref, req, got.Results)
	}
	want := ref.DoCtx(context.Background(), req)
	if fingerprint(want) != fingerprint(got) {
		return fmt.Errorf("answer differs from a cache-less engine:\n got  %s\n want %s", fingerprint(got), fingerprint(want))
	}
	return nil
}

// resultTolerance is the top-k equivalence contract's value tolerance,
// as the topk package's own equivalence tests define it: the algorithms
// sum a member's list values in different orders, so values may differ
// in the last bits.
const resultTolerance = 1e-9

// checkTopK checks a quantify answer against Naive (TA≡FA≡NRA≡Naive):
// the answer's value sequence must equal Naive's within resultTolerance,
// and every returned member must be a distinct member whose own Naive
// value matches the one returned. Members whose values tie within the
// tolerance may therefore come in either order, or either may take the
// last place; any other difference is a wrong answer.
func checkTopK(ref *serve.Engine, req serve.Request, got []topk.Result) error {
	naive := req
	naive.Algorithm = topk.Naive
	want := ref.DoCtx(context.Background(), naive)
	if want.Err != nil {
		return fmt.Errorf("naive reference failed: %w", want.Err)
	}
	mismatch := func(why string) error {
		return fmt.Errorf("%v answer differs from Naive (%s): got %+v want %+v", req.Algorithm, why, got, want.Results)
	}
	if len(got) != len(want.Results) {
		return mismatch("length")
	}
	all := naive
	all.K = 1 << 16
	full := ref.DoCtx(context.Background(), all)
	if full.Err != nil {
		return fmt.Errorf("naive reference failed: %w", full.Err)
	}
	value := make(map[string]float64, len(full.Results))
	for _, r := range full.Results {
		value[r.Key] = r.Value
	}
	seen := make(map[string]bool, len(got))
	for i, r := range got {
		v, ok := value[r.Key]
		switch {
		case !near(r.Value, want.Results[i].Value):
			return mismatch(fmt.Sprintf("value at rank %d", i+1))
		case !ok || seen[r.Key]:
			return mismatch(fmt.Sprintf("member %q at rank %d", r.Key, i+1))
		case !near(r.Value, v):
			return mismatch(fmt.Sprintf("value of %q", r.Key))
		}
		seen[r.Key] = true
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= resultTolerance }

// verify checks up to oracleSamples of the kept responses in recs
// (reads of ops), evenly spread, skipping records that already failed,
// and marks a record failed on a mismatch. It returns how many it
// checked, how many mismatched, and the first mismatch.
func verify(refs refSource, ops []op, recs []rec, exact bool) (checked, bad int, first error) {
	var kept []int
	for i := range recs {
		if r := &recs[i]; r.resp != nil && r.op >= 0 && !r.failed {
			kept = append(kept, i)
		}
	}
	stride := max(1, (len(kept)+oracleSamples-1)/oracleSamples)
	for j := 0; j < len(kept); j += stride {
		r := &recs[kept[j]]
		checked++
		var err error
		if ref := refs(r.gen); ref == nil {
			err = fmt.Errorf("response generation %d matches no kept snapshot", r.gen)
		} else {
			err = check(ref, ops[r.op].req, *r.resp, exact)
		}
		if err != nil {
			r.failed = true
			bad++
			if first == nil {
				first = fmt.Errorf("%s op %d: %w", ops[r.op].label, r.op, err)
			}
		}
	}
	return checked, bad, first
}
