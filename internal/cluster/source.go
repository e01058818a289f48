package cluster

import (
	"context"

	"fairjob/internal/compare"
	"fairjob/internal/core"
	"fairjob/internal/index"
	"fairjob/internal/topk"
)

// cellStore adapts the cells gathered from partitions into a
// compare.CellSource: Problem 2 comparisons run the exact single-table
// math over it, because the union of the partitions' defined cells IS
// the single table's defined cells.
type cellStore struct {
	uni   *Universe
	cells map[core.Triple]float64
}

func (cs *cellStore) Dims() ([]string, []core.Query, []core.Location) {
	return cs.uni.GroupKeys, cs.uni.Queries, cs.uni.Locations
}

func (cs *cellStore) Cell(g string, q core.Query, l core.Location) (float64, bool) {
	v, ok := cs.cells[core.Triple{GroupKey: g, Query: q, Location: l}]
	return v, ok
}

// cellMemo is the compare gather of one generation vector: each
// partition's cells at gens[p], and the store merged from them.
// Immutable once built, so concurrent compares share it freely.
type cellMemo struct {
	gens  []uint64
	parts [][]Cell
	store *cellStore
}

// newCellMemo builds the memo for gens, taking partition p's cells from
// fresh[p] when the node shipped them and from prev otherwise.
func newCellMemo(uni *Universe, prev *cellMemo, gens []uint64, fresh [][]Cell) *cellMemo {
	m := &cellMemo{gens: gens, parts: make([][]Cell, len(gens))}
	total := 0
	for p := range gens {
		if prev != nil && gens[p] == prev.gens[p] {
			m.parts[p] = prev.parts[p]
		} else {
			m.parts[p] = fresh[p]
		}
		total += len(m.parts[p])
	}
	m.store = &cellStore{uni: uni, cells: make(map[core.Triple]float64, total)}
	for _, part := range m.parts {
		for _, c := range part {
			m.store.cells[core.Triple{GroupKey: c.G, Query: c.Q, Location: c.L}] = c.V
		}
	}
	return m
}

// geom is the coordinator's precomputed geometry for one list family:
// how many global lists the family has, how long each merged list is,
// which partitions hold fragments of each list, and — the other way
// round — which fragments each partition holds, so one batched OpScan
// can refill all of a partition's fragments at once. It depends only on
// the sealed universe and the partition count, so it is computed once.
type geom struct {
	numLists, listLen int
	// frags is every fragment of the family, list by list: list i's
	// fragments are frags[first[i]:first[i+1]].
	frags []fragInfo
	first []int
	// byPart[p] holds the indices into frags of partition p's
	// fragments, in list order.
	byPart [][]int
}

// fragInfo names one partition's fragment of a merged list: which list,
// which partition, and how many entries the fragment holds (known up
// front from the routing function, which is what lets the merge stop
// asking a partition that is exhausted without a sentinel round-trip).
type fragInfo struct {
	list, p, n int
}

// newGeom lays out a family of numLists lists of listLen members over n
// partitions; fragsOf(i) names list i's (partition, size) fragments.
func newGeom(numLists, listLen, n int, fragsOf func(i int) []fragInfo) *geom {
	g := &geom{numLists: numLists, listLen: listLen, first: make([]int, numLists+1), byPart: make([][]int, n)}
	for i := 0; i < numLists; i++ {
		for _, fi := range fragsOf(i) {
			fi.list = i
			g.byPart[fi.p] = append(g.byPart[fi.p], len(g.frags))
			g.frags = append(g.frags, fi)
		}
		g.first[i+1] = len(g.frags)
	}
	return g
}

// buildGeoms derives the three families' geometry from the universe and
// routing. Mirrors the fragment construction in Node.buildFragments:
// the group family's lists are single-owner (the pair's owner holds all
// |G| members), the query/location families' lists are split across the
// partitions owning the member's pair.
func buildGeoms(uni *Universe, n int) map[compare.Dimension]*geom {
	G, Q, L := uni.counts()

	// owner[qi][li] memoizes the routing for both passes.
	owner := make([][]int, Q)
	for qi, q := range uni.Queries {
		owner[qi] = make([]int, L)
		for li, l := range uni.Locations {
			owner[qi][li] = Route(q, l, n)
		}
	}

	// Per-axis fragment sizes: how many queries each partition owns at a
	// given location, and how many locations at a given query.
	split := func(counts []int) []fragInfo {
		var fis []fragInfo
		for p, c := range counts {
			if c > 0 {
				fis = append(fis, fragInfo{p: p, n: c})
			}
		}
		return fis
	}
	atLoc := make([][]fragInfo, L)
	for li := 0; li < L; li++ {
		counts := make([]int, n)
		for qi := 0; qi < Q; qi++ {
			counts[owner[qi][li]]++
		}
		atLoc[li] = split(counts)
	}
	atQuery := make([][]fragInfo, Q)
	for qi := 0; qi < Q; qi++ {
		counts := make([]int, n)
		for li := 0; li < L; li++ {
			counts[owner[qi][li]]++
		}
		atQuery[qi] = split(counts)
	}

	return map[compare.Dimension]*geom{
		compare.ByGroup: newGeom(Q*L, G, n, func(i int) []fragInfo {
			return []fragInfo{{p: owner[i/L][i%L], n: G}}
		}),
		compare.ByQuery:    newGeom(G*L, Q, n, func(i int) []fragInfo { return atLoc[i%L] }),
		compare.ByLocation: newGeom(G*Q, L, n, func(i int) []fragInfo { return atQuery[i%Q] }),
	}
}

// fragState is the per-request scan state of one fragment.
type fragState struct {
	got  []index.Entry // every entry fetched so far, in fragment order
	next int           // merge cursor into got
	end  int           // fragment length (cut short if a node ran dry early)
}

// mergedRow is one key's random-access row, merged across partitions
// and dense by list id.
type mergedRow struct {
	vals []float64
	has  []bool
}

// scatterSource is the per-request topk.ListSource the coordinator's
// distributed TA runs over. All methods run on the request goroutine —
// topk algorithms are sequential — so no locks.
//
// Sorted access (At) k-way merges fragments in the canonical entry
// order, so position p of merged list i is byte-identical to position p
// of the single index's list i; a list held whole by one partition is
// read straight from its fragment. Fragments are fetched per partition,
// not per list: the first access fills every partition's fragments,
// and whenever a fragment drains, one batched OpScan tops every
// fragment that partition holds up to the next multiple of ScanBlock
// entries. TA's sorted access is round-robin over every list (and FA,
// NRA, Naive, least-unfair and candidate restriction read every list
// too), so the blocks fetched alongside the drained one are ones the
// run reads anyway. Each partition therefore costs at most
// ceil(listLen/ScanBlock) scan RPCs per request.
//
// Random access (Find) is batched the same way: a row miss looks up
// the missing key together with every key sorted access has surfaced
// but no lookup has covered yet, one OpLookup per partition, and caches
// the merged rows. Together with the first-access fill this costs at
// most one lookup round per TA round whenever ScanBlock ≥ partitions.
//
// A partition whose leg fails is lost for the rest of the run: none of
// its fragments are fetched again, and (via reqCtx.markDead) the
// request's run context is canceled, so the topk run unwinds with a
// context error and the coordinator degrades.
type scatterSource struct {
	rc      *reqCtx
	ctx     context.Context
	dim     compare.Dimension
	g       *geom
	started bool

	frags  []fragState     // parallel to g.frags
	depth  []int           // per partition: fragments fetched up to here
	lost   []bool          // per partition: a leg failed this run
	merged [][]index.Entry // per multi-fragment list: entries merged so far

	rows map[string]*mergedRow // nil value: surfaced, not yet looked up
	// pending lists the surfaced keys with no row yet, in surfacing
	// order — the next lookup batch; unsurfaced holds the blocks fetched
	// since the last lookup, whose keys are surfaced only when a lookup
	// needs them (NRA and Naive never do).
	pending    []string
	unsurfaced [][]index.Entry
}

func newScatterSource(ctx context.Context, rc *reqCtx, dim compare.Dimension, g *geom) *scatterSource {
	s := &scatterSource{
		rc:     rc,
		ctx:    ctx,
		dim:    dim,
		g:      g,
		frags:  make([]fragState, len(g.frags)),
		depth:  make([]int, rc.n),
		lost:   make([]bool, rc.n),
		merged: make([][]index.Entry, g.numLists),
		rows:   make(map[string]*mergedRow),
	}
	for f, fi := range g.frags {
		s.frags[f].end = fi.n
	}
	return s
}

func (s *scatterSource) NumLists() int { return s.g.numLists }
func (s *scatterSource) ListLen() int  { return s.g.listLen }

func (s *scatterSource) At(i, pos int) (index.Entry, bool) {
	if i < 0 || i >= s.g.numLists || pos < 0 || pos >= s.g.listLen {
		return index.Entry{}, false
	}
	if !s.started {
		// Every algorithm reads position 0 (or, reversed, the tail) of
		// every list, so every partition's first blocks are needed: fetch
		// them up front, which also surfaces the keys the first lookup
		// batch covers.
		s.started = true
		for p := range s.g.byPart {
			s.refill(p)
		}
	}
	lo, hi := s.g.first[i], s.g.first[i+1]
	if hi-lo == 1 {
		fs, p := &s.frags[lo], s.g.frags[lo].p
		for len(fs.got) <= pos {
			if s.lost[p] || len(fs.got) >= fs.end {
				return index.Entry{}, false
			}
			s.refill(p)
		}
		return fs.got[pos], true
	}
	if s.merged[i] == nil {
		s.merged[i] = make([]index.Entry, 0, s.g.listLen)
	}
	for len(s.merged[i]) <= pos {
		if !s.mergeOne(i, lo, hi) {
			return index.Entry{}, false
		}
	}
	return s.merged[i][pos], true
}

// mergeOne advances merged list i, whose fragments are frags[lo:hi], by
// one entry: refill the partition of any drained fragment, then pop the
// minimum head in canonical order. Returns false when every live
// fragment is exhausted.
func (s *scatterSource) mergeOne(i, lo, hi int) bool {
	best := -1
	var head index.Entry
	for f := lo; f < hi; f++ {
		fs := &s.frags[f]
		p := s.g.frags[f].p
		if fs.next == len(fs.got) && len(fs.got) < fs.end {
			s.refill(p)
		}
		if s.lost[p] || fs.next == len(fs.got) {
			continue
		}
		if e := fs.got[fs.next]; best < 0 || topk.LessEntries(e, head) {
			best, head = f, e
		}
	}
	if best < 0 {
		return false
	}
	s.merged[i] = append(s.merged[i], head)
	s.frags[best].next++
	return true
}

// refill tops every live fragment partition p holds up to the
// partition's next ScanBlock boundary, with one batched OpScan.
func (s *scatterSource) refill(p int) {
	if s.lost[p] {
		return
	}
	depth := s.depth[p] + s.rc.scanBlock
	var scans []ScanRange
	var idx []int
	for _, f := range s.g.byPart[p] {
		fs := &s.frags[f]
		if want := min(fs.end, depth); len(fs.got) < want {
			scans = append(scans, ScanRange{List: s.g.frags[f].list, Start: len(fs.got), Count: want - len(fs.got)})
			idx = append(idx, f)
		}
	}
	s.depth[p] = depth
	if len(scans) == 0 {
		return
	}
	reply, err := s.rc.call(s.ctx, p, Call{Op: OpScan, Dim: s.dim, Scans: scans})
	if err != nil {
		s.lost[p] = true // markDead already canceled the run
		return
	}
	for j, f := range idx {
		var block []index.Entry
		if j < len(reply.Blocks) {
			block = reply.Blocks[j]
		}
		fs := &s.frags[f]
		if len(fs.got) == 0 {
			fs.got = block
		} else {
			fs.got = append(fs.got, block...)
		}
		if len(block) < scans[j].Count {
			fs.end = len(fs.got) // defensive: shorter fragment than geometry
		}
		s.unsurfaced = append(s.unsurfaced, block)
	}
}

// Find answers random access from the merged row cache, filling it on
// a miss with one batched lookup round.
func (s *scatterSource) Find(i int, key string) (float64, bool) {
	row := s.rows[key]
	if row == nil {
		s.surface(key)
		s.lookup()
		row = s.rows[key]
	}
	return row.vals[i], row.has[i]
}

// surface queues a key for the next lookup batch, once.
func (s *scatterSource) surface(key string) {
	if _, ok := s.rows[key]; !ok {
		s.rows[key] = nil
		s.pending = append(s.pending, key)
	}
}

// lookup merges the rows of every pending key from one OpLookup per
// partition. Keys whose legs failed get a partial row; the run's answer
// is discarded in that case (a lost partition degrades the request).
func (s *scatterSource) lookup() {
	for _, block := range s.unsurfaced {
		for _, e := range block {
			s.surface(e.Key)
		}
	}
	s.unsurfaced = nil
	keys := s.pending
	s.pending = nil
	nl := s.g.numLists
	vals := make([]float64, len(keys)*nl)
	has := make([]bool, len(keys)*nl)
	rows := make([]mergedRow, len(keys))
	for j, key := range keys {
		rows[j] = mergedRow{vals: vals[j*nl : (j+1)*nl], has: has[j*nl : (j+1)*nl]}
		s.rows[key] = &rows[j]
	}
	for p, frags := range s.g.byPart {
		if len(frags) == 0 || s.lost[p] {
			continue
		}
		reply, err := s.rc.call(s.ctx, p, Call{Op: OpLookup, Dim: s.dim, Keys: keys})
		if err != nil {
			s.lost[p] = true
			continue
		}
		for j, row := range reply.Rows {
			if j >= len(rows) {
				break
			}
			for _, lv := range row {
				if lv.List >= 0 && lv.List < nl {
					rows[j].vals[lv.List] = lv.Value
					rows[j].has[lv.List] = true
				}
			}
		}
	}
}
