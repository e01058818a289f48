package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/mitigate"
	"fairjob/internal/serve"
	"fairjob/internal/topk"
)

// The stream is drawn with the benchmark's own PRNGs (math/rand/v2 PCG),
// not the program's stats.RNG, so a change to the program cannot change
// the offered load.

// universe is what a stream draws from: the served dimension members,
// the mitigation targets every re-ranker answers on, and the defined
// cells a write may edit. It is derived from the snapshot once per run.
type universe struct {
	groups  []string
	queries []string
	locs    []string
	targets []mitTarget
	cells   []core.Triple
}

// mitTarget is one (page, group) pair on which all three re-rankers
// return an answer rather than an "undefined deviation" error.
type mitTarget struct {
	query, loc, group string
}

// edit is one cell a hot-churn write sets.
type edit struct {
	cell core.Triple
	v    float64
}

// op is one entry of the offered stream: a read request, or a write (a
// seeded Refresh of existing cells) when edits is non-nil. at is the
// scheduled arrival relative to the phase start; it is unused by the
// closed-loop replay.
type op struct {
	at    time.Duration
	label string
	req   serve.Request
	edits []edit
}

func (o *op) isWrite() bool { return o.edits != nil }

// spec fixes a workload's stream parameters. They are constants of the
// benchmark so that two commits measured with it see the same load.
type spec struct {
	name       string
	partitions int     // 0: single engine; otherwise a cluster of this width
	rate       float64 // open-loop read arrivals per second (Poisson)
	hotSet     int     // 0: reads drawn from the whole population
	writeRate  float64 // refreshes per second, scheduled beside the reads
	editsPer   int     // cells each write changes
	openShare  float64 // share of --seconds spent in the open-loop phase
}

// specs are the three workloads. The open-loop rates sit well below
// each workload's closed-loop capacity on a 2-vCPU host (engine-miss
// ~700 rps, cluster-p4 ~40 rps): at half of it, p50 moved by half its
// value from run to run, because a few congestion episodes decide it.
// Hot-churn's hits are limited by the generator, not the engine.
var specs = map[string]spec{
	"engine-miss": {name: "engine-miss", rate: 75, openShare: 0.6},
	"hot-churn":   {name: "hot-churn", rate: 1000, hotSet: 63, writeRate: 1, editsPer: 16, openShare: 0.6},
	"cluster-p4":  {name: "cluster-p4", partitions: 4, rate: 8, openShare: 0.6},
}

// drawer samples read requests from the engine-miss population:
// quantify over every algorithm, dimension, direction and k (with a
// Candidates subset on the group dimension), compare over every Of/By
// pair of members, and mitigate over targets × re-rankers × knobs.
//
// Two devices keep the stream's cost steady between seeds while every
// request still varies with the seed. Request kinds are dealt from a
// shuffled deck rather than drawn independently, so every run offers
// the same mix: one slot per algorithm × dimension for quantify, one
// per Of/By pair for compare, one per re-ranker for mitigate. And the
// small shape populations — quantify on the query and location
// dimensions (k × direction) and compare of two groups (pair × semantics)
// — are dealt without replacement, so a shape recurs only after more
// distinct misses than the 1,024-entry result cache holds. The stream
// therefore almost never hits the cache, instead of hitting it by the
// chance of repeats.
type drawer struct {
	u     *universe
	rng   *rand.Rand // seeded from --seed: request details
	sched *rand.Rand // seeded from scheduleSeed: the schedule
	deck  []kind
	pools map[poolKey][]int
}

// scheduleSeed seeds the schedule shared by every --seed: the arrival
// times, the order in which request kinds are dealt, and the knobs that
// set a request's cost class — quantify's k band and direction (and k
// on the group dimension), compare's Of/By pair and semantics,
// mitigation's knobs. A 30-second open loop holds too few requests of
// each cost class, and too few congestion episodes, for the luck of
// their draw to average out between runs; with one schedule every seed
// offers the same mix at the same moments, while the seed still draws
// every request's details (k within its band, members, candidate
// subsets, mitigation targets, hot set, edits), so runs differ by their
// inputs and the host rather than by how the classes fell.
const scheduleSeed = 0x5eed

func newDrawer(u *universe, seed, stream uint64) *drawer {
	return &drawer{
		u:     u,
		rng:   rand.New(rand.NewPCG(seed, stream)),
		sched: rand.New(rand.NewPCG(scheduleSeed, stream)),
		pools: map[poolKey][]int{},
	}
}

// kind is one deck slot.
type kind struct {
	problem serve.Problem
	algo    topk.Algorithm
	dim     compare.Dimension // quantify: Dim; compare: Of
	by      compare.Dimension
	mit     mitigate.Kind
}

var dims = []compare.Dimension{compare.ByGroup, compare.ByQuery, compare.ByLocation}

// maxK bounds k on the query and location dimensions. Each of their
// (algorithm, dimension) slots deals 2·maxK shapes before repeating, so a
// shape recurs only after about 2·maxK·21 ≈ 1,300 other requests, more
// than the result cache holds. It is a multiple of kStrata.
const maxK = 32

func fullDeck() []kind {
	var d []kind
	for _, a := range topk.Algorithms() {
		for _, dim := range dims {
			d = append(d, kind{problem: serve.Quantify, algo: a, dim: dim})
		}
	}
	for _, of := range dims {
		for _, by := range dims {
			if of != by {
				d = append(d, kind{problem: serve.Compare, dim: of, by: by})
			}
		}
	}
	for _, m := range mitigate.Kinds() {
		d = append(d, kind{problem: serve.Mitigate, mit: m})
	}
	return d
}

func (d *drawer) read() (string, serve.Request) {
	if len(d.deck) == 0 {
		d.deck = fullDeck()
		d.sched.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	k := d.deck[len(d.deck)-1]
	d.deck = d.deck[:len(d.deck)-1]
	switch k.problem {
	case serve.Quantify:
		return d.quantify(k)
	case serve.Compare:
		return d.compare(k)
	default:
		return d.mitigate(k.mit)
	}
}

// poolKey names a without-replacement pool of a slot: the k band
// rotation (band -1), or the shapes of one sub-class (band ≥ 0: a k band
// and direction, or a compare semantics).
type poolKey struct {
	slot kind
	band int
}

// deal returns the next of n indices from pool k, each index once per
// round shuffled with r.
func (d *drawer) deal(r *rand.Rand, k poolKey, n int) int {
	p := d.pools[k]
	if len(p) == 0 {
		p = r.Perm(n)
	}
	d.pools[k] = p[:len(p)-1]
	return p[len(p)-1]
}

// kStrata is how many bands of k a quantify slot on the query or
// location dimension rotates through.
const kStrata = 8

// dealK returns the next (k, direction) shape for slot k: the slot
// visits the kStrata bands of 1..maxK in a shuffled rotation and deals
// a shape from the band without replacement. Any stretch of draws thus
// covers the k range evenly, so the expensive large-k requests that
// form the latency tail come in the same number on every seed.
func (d *drawer) dealK(k kind) (int, topk.Direction) {
	band := d.deal(d.sched, poolKey{slot: k, band: -1}, kStrata)
	dir := d.sched.IntN(2)
	per := maxK / kStrata
	i := d.deal(d.rng, poolKey{slot: k, band: 2*band + dir}, per)
	return 1 + band*per + i, topk.Direction(dir)
}

func (d *drawer) quantify(k kind) (string, serve.Request) {
	req := serve.Request{Problem: serve.Quantify, Algorithm: k.algo, Dim: k.dim}
	if k.dim == compare.ByGroup {
		req.K = 1 + d.sched.IntN(5)
		req.Direction = topk.Direction(d.sched.IntN(2))
		req.Candidates = d.subset(d.u.groups)
	} else {
		req.K, req.Direction = d.dealK(k)
	}
	return "quantify/" + k.algo.String(), req
}

// subset returns a uniformly drawn subset of at least two members of
// all, in their original order.
func (d *drawer) subset(all []string) []string {
	for {
		var out []string
		for _, m := range all {
			if d.rng.IntN(2) == 0 {
				out = append(out, m)
			}
		}
		if len(out) >= 2 {
			return out
		}
	}
}

func (d *drawer) compare(k kind) (string, serve.Request) {
	members := map[compare.Dimension][]string{compare.ByGroup: d.u.groups, compare.ByQuery: d.u.queries, compare.ByLocation: d.u.locs}[k.dim]
	m := len(members)
	sem := d.sched.IntN(2)
	var i, j int
	if k.dim == compare.ByGroup {
		// Ordered pairs of distinct groups, without replacement.
		x := d.deal(d.rng, poolKey{slot: k, band: sem}, m*(m-1))
		i, j = x/(m-1), x%(m-1)
	} else {
		i, j = d.rng.IntN(m), d.rng.IntN(m-1)
	}
	if j >= i {
		j++
	}
	return "compare", serve.Request{
		Problem: serve.Compare, Of: k.dim, By: k.by,
		R1: members[i], R2: members[j], DefinedOnly: sem == 1,
	}
}

func (d *drawer) mitigate(kind mitigate.Kind) (string, serve.Request) {
	t := d.u.targets[d.rng.IntN(len(d.u.targets))]
	req := serve.Request{Problem: serve.Mitigate, Mitigator: kind, Group: t.group, Query: t.query, Location: t.loc}
	switch kind {
	case mitigate.FairTopK:
		req.MinProportion = float64(d.sched.IntN(6)) / 10
	case mitigate.ExposureParity:
		req.SwapBudget = []int{0, 4, 16}[d.sched.IntN(3)]
	}
	return "mitigate/" + kind.String(), req
}

// write draws one seeded edit batch over existing cells.
func (d *drawer) write(n int) []edit {
	out := make([]edit, n)
	for i := range out {
		out[i] = edit{cell: d.u.cells[d.rng.IntN(len(d.u.cells))], v: d.rng.Float64()}
	}
	return out
}

// drawHot draws the first n reads of d as the hot set. Its quantify
// requests on the query and location dimensions get evenly spaced k
// (the i-th of a slot's r occurrences gets the (2i+1)/2r quantile of
// 1..maxK) instead of dealt ones: every swap makes the whole hot set
// miss once, so the set's total cost sets how long each refill stalls
// the hit path, and it should not depend on which k the seed dealt.
func drawHot(d *drawer, n int) []op {
	hot := make([]op, n)
	seen := map[kind]int{}
	for i := range hot {
		hot[i].label, hot[i].req = d.read()
		if r := &hot[i].req; r.Problem == serve.Quantify && r.Dim != compare.ByGroup {
			seen[kind{algo: r.Algorithm, dim: r.Dim}]++
		}
	}
	rounds := seen
	seen = map[kind]int{}
	for i := range hot {
		if r := &hot[i].req; r.Problem == serve.Quantify && r.Dim != compare.ByGroup {
			k := kind{algo: r.Algorithm, dim: r.Dim}
			r.K = 1 + (2*seen[k]+1)*(maxK-1)/(2*rounds[k])
			seen[k]++
		}
	}
	return hot
}

// streams builds a run's offered load from its seed:
//   - reads: closedN reads for the warm-up and the closed loop, which
//     replay them in order;
//   - open: the open-loop schedule for openDur — Poisson read arrivals
//     at sp.rate, continuing the read stream so no shape repeats early,
//     and for hot-churn writes every 1/sp.writeRate merged in;
//   - writes: the closed loop's writes, at the same fixed rate.
//
// Reads, arrival gaps and writes use separate PRNG streams, so the
// sequence of requests does not depend on the arrival process; the
// arrival gaps come from the shared schedule (see scheduleSeed). Hot-churn
// reads are drawn from a hot set of sp.hotSet requests, few enough to
// stay resident in the result cache.
func streams(sp spec, u *universe, seed uint64, openDur, closedDur time.Duration, closedN int) (open, reads, writes []op) {
	rd := newDrawer(u, seed, 1)
	gaps := newDrawer(u, seed, 2)
	wr := newDrawer(u, seed, 3)
	hot := drawHot(rd, sp.hotSet)
	next := func() op {
		if len(hot) > 0 {
			return hot[rd.rng.IntN(len(hot))]
		}
		var o op
		o.label, o.req = rd.read()
		return o
	}
	for i := 0; i < closedN; i++ {
		reads = append(reads, next())
	}
	for t := gaps.sched.ExpFloat64() / sp.rate; ; t += gaps.sched.ExpFloat64() / sp.rate {
		at := time.Duration(t * float64(time.Second))
		if at >= openDur {
			break
		}
		o := next()
		o.at = at
		open = append(open, o)
	}
	if sp.writeRate > 0 {
		step := time.Duration(float64(time.Second) / sp.writeRate)
		for at := step / 2; at < closedDur; at += step {
			writes = append(writes, op{at: at, label: "refresh", edits: wr.write(sp.editsPer)})
		}
		for at := step / 2; at < openDur; at += step {
			open = append(open, op{at: at, label: "refresh", edits: wr.write(sp.editsPer)})
		}
		sort.SliceStable(open, func(i, j int) bool { return open[i].at < open[j].at })
	}
	return open, reads, writes
}
