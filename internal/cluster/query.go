package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/serve"
)

// candidate is one shard-local skyline row in the coordinator's merge
// pass: its wire identity (shard + shard-scoped row index + raw
// values) and the comparison point dominance is tested on (projected
// onto kept dimensions; distance-transformed for fully dynamic
// queries).
type candidate struct {
	shard int
	row   serve.SkylineRow
	pt    core.Point
}

// gather is a compiled scatter/gather pass: how to query one shard and
// how to interpret its rows for the merge.
type gather struct {
	ct     *ctable
	keptTO []int           // kept TO dims (identity when no subspace)
	keptPO []int           // kept PO dims
	doms   []*poset.Domain // dominance oracle, one per kept PO dim
	ideal  []int64         // non-nil: |v−ideal| transform (fully dynamic)
	stats  []serve.TableStatsInfo
	prune  bool // statistics-driven shard pruning applies
	// noElim keeps the gathered union un-eliminated: a UnionRanker
	// (skyline layers) needs every shard-local row — cross-shard
	// dominance elimination would discard the deeper layers.
	noElim bool
	query  func(ctx context.Context, shard int) (*serve.QueryResponse, error)
}

// result of the gather: merged candidates plus scatter metadata.
type gathered struct {
	merged   []candidate
	rowsTot  int
	versions []int64
	pruned   []int
	metrics  core.MetricsExport
	cacheHit bool
	queried  int
}

// point builds a candidate's comparison point from its wire values.
func (g *gather) point(row *serve.SkylineRow) (core.Point, error) {
	pt := core.Point{ID: -1, TO: make([]int32, len(g.keptTO))}
	for j, d := range g.keptTO {
		if d >= len(row.TO) {
			return core.Point{}, fmt.Errorf("cluster: shard row has %d TO values, need column %d", len(row.TO), d)
		}
		v := row.TO[d]
		if g.ideal != nil {
			v -= g.ideal[d]
			if v < 0 {
				v = -v
			}
		}
		pt.TO[j] = int32(v)
	}
	if len(g.keptPO) > 0 {
		pt.PO = make([]int32, len(g.keptPO))
		for j, d := range g.keptPO {
			if d >= len(row.PO) {
				return core.Point{}, fmt.Errorf("cluster: shard row has %d PO values, need column %d", len(row.PO), d)
			}
			id, ok := g.ct.schema.POValueID(d, row.PO[d])
			if !ok {
				return core.Point{}, fmt.Errorf("cluster: shard row carries unknown value %q for PO column %d", row.PO[d], d)
			}
			pt.PO[j] = int32(id)
		}
	}
	return pt, nil
}

// universalTops returns the domain values t-preferred to every other
// value — the only PO values that can dominate a shard corner whose PO
// combination is unknown.
func universalTops(dom *poset.Domain) map[int32]bool {
	tops := make(map[int32]bool)
	n := int32(dom.Size())
	for u := int32(0); u < n; u++ {
		top := true
		for v := int32(0); v < n && top; v++ {
			if v != u && !dom.TPrefers(u, v) {
				top = false
			}
		}
		if top {
			tops[u] = true
		}
	}
	return tops
}

// corner returns shard i's statistics min corner over the kept TO
// dims, or ok=false when the shard has no rows (nothing to prune — an
// empty shard answers instantly anyway).
func (g *gather) corner(i int) ([]int64, bool) {
	st := g.stats[i].Stats
	if st == nil || st.Rows == 0 {
		return nil, false
	}
	c := make([]int64, len(g.keptTO))
	for j, d := range g.keptTO {
		if d >= len(st.TO) {
			return nil, false
		}
		c[j] = st.TO[d].Min
	}
	return c, true
}

// dominatesCorner reports whether candidate c t-dominates every row a
// shard with the given min corner could possibly hold: at least as
// good on every kept TO dim with one strictly better, and a
// universally-top PO value on every kept PO dim (the corner's PO
// combination is unknown, so only a top dominates it conservatively).
// Rows of the pruned shard are all ⪰ its corner, so c dominates each
// of them with the same strict dimension.
func (g *gather) dominatesCorner(c *candidate, corner []int64, tops []map[int32]bool) bool {
	strict := false
	for j, d := range g.keptTO {
		v := c.row.TO[d]
		if v > corner[j] {
			return false
		}
		if v < corner[j] {
			strict = true
		}
	}
	if !strict {
		return false
	}
	for j := range g.keptPO {
		if !tops[j][c.pt.PO[j]] {
			return false
		}
	}
	return true
}

// run executes the scatter/gather: the shard with the best (smallest)
// corner is queried first, every remaining shard whose corner is
// dominated by a gathered candidate is pruned, the survivors are
// queried in parallel, and the union is reduced by the t-dominance
// elimination pass.
func (g *gather) run(ctx context.Context, co *Coordinator) (*gathered, error) {
	n := len(co.shards)
	out := &gathered{versions: make([]int64, n)}
	resps := make([]*serve.QueryResponse, n)
	prebuilt := make([][]candidate, n) // avoids re-projecting the pruning seed

	queryShard := func(i int) error {
		resp, err := g.query(ctx, i)
		if err != nil {
			return err
		}
		resps[i] = resp
		return nil
	}

	if !g.prune || n == 1 {
		errs := co.scatter(queryShard)
		if err := firstError(errs); err != nil {
			return nil, err
		}
	} else {
		// Order shards by ascending corner L1: the shard most likely to
		// dominate the others goes first, so its candidates prune the
		// most before any other shard is contacted.
		type sc struct {
			i      int
			corner []int64
			sum    int64
			ok     bool
		}
		order := make([]sc, 0, n)
		for i := 0; i < n; i++ {
			c, ok := g.corner(i)
			e := sc{i: i, corner: c, ok: ok}
			for _, v := range c {
				e.sum += v
			}
			if !ok {
				e.sum = 1<<62 - 1 // empty shards last; never pruned, answer instantly
			}
			order = append(order, e)
		}
		sort.Slice(order, func(a, b int) bool {
			if order[a].sum != order[b].sum {
				return order[a].sum < order[b].sum
			}
			return order[a].i < order[b].i
		})
		if err := queryShard(order[0].i); err != nil {
			return nil, err
		}
		seed, err := g.candidates(order[0].i, resps[order[0].i])
		if err != nil {
			return nil, err
		}
		prebuilt[order[0].i] = seed
		tops := make([]map[int32]bool, len(g.keptPO))
		for j, d := range g.keptPO {
			tops[j] = universalTops(g.domFor(j, d))
		}
		var survivors []int
		for _, e := range order[1:] {
			prunable := false
			if e.ok {
				for k := range seed {
					if g.dominatesCorner(&seed[k], e.corner, tops) {
						prunable = true
						break
					}
				}
			}
			if prunable {
				out.pruned = append(out.pruned, e.i)
				// The version vector and the table row count still reflect
				// the snapshot whose statistics justified the prune.
				out.versions[e.i] = g.stats[e.i].Version
				out.rowsTot += g.stats[e.i].Rows
				continue
			}
			survivors = append(survivors, e.i)
		}
		sort.Ints(out.pruned)
		errsByShard := co.scatterSome(survivors, queryShard)
		for _, err := range errsByShard {
			if err != nil {
				return nil, err
			}
		}
	}

	// Collect in shard order so the merged sequence is deterministic.
	var all []candidate
	hits, responded := 0, 0
	for i := 0; i < n; i++ {
		resp := resps[i]
		if resp == nil {
			continue
		}
		responded++
		out.versions[i] = resp.Version
		out.rowsTot += resp.Rows
		if resp.CacheHit {
			hits++
		}
		addMetrics(&out.metrics, &resp.Metrics)
		cands := prebuilt[i]
		if cands == nil {
			var err error
			if cands, err = g.candidates(i, resp); err != nil {
				return nil, err
			}
		}
		all = append(all, cands...)
	}
	out.queried = responded
	out.cacheHit = responded > 0 && hits == responded
	out.metrics.Shards = responded
	if g.noElim {
		out.merged = all
	} else {
		out.merged = eliminate(all, g.doms)
	}
	return out, nil
}

// domFor returns the dominance domain of kept PO slot j (table dim d).
func (g *gather) domFor(j, d int) *poset.Domain { return g.doms[j] }

// pin returns the version shard i's read must observe on failover: the
// version its statistics snapshot was taken at, so the shard's view
// never moves backwards within one scatter. 0 (unpinned) when the
// gather fetched no statistics.
func (g *gather) pin(i int) int64 {
	if i < len(g.stats) {
		return g.stats[i].Version
	}
	return 0
}

// candidates converts one shard response into merge candidates.
func (g *gather) candidates(shard int, resp *serve.QueryResponse) ([]candidate, error) {
	cands := make([]candidate, len(resp.Skyline))
	for k := range resp.Skyline {
		pt, err := g.point(&resp.Skyline[k])
		if err != nil {
			return nil, err
		}
		cands[k] = candidate{shard: shard, row: resp.Skyline[k], pt: pt}
	}
	return cands, nil
}

// eliminate removes candidates t-dominated by a candidate from another
// shard — the cross-shard half of the partition-and-merge
// decomposition, served by the same worker-parallel pass the
// in-process executor uses (core.MergeSurvivors; same-shard pairs are
// skipped because each shard's list is already a skyline). Equal
// points never dominate each other, so duplicated rows survive
// together, matching single-node semantics. Order is preserved.
func eliminate(cands []candidate, doms []*poset.Domain) []candidate {
	if len(cands) == 0 {
		return nil
	}
	pts := make([]core.Point, len(cands))
	shards := make([]int, len(cands))
	for i := range cands {
		pts[i] = cands[i].pt
		shards[i] = cands[i].shard
	}
	keep := core.MergeSurvivors(doms, pts, shards, runtime.GOMAXPROCS(0))
	out := make([]candidate, len(keep))
	for k, i := range keep {
		out[k] = cands[i]
	}
	return out
}

func addMetrics(dst *core.MetricsExport, src *core.MetricsExport) {
	dst.ReadIOs += src.ReadIOs
	dst.WriteIOs += src.WriteIOs
	dst.DomChecks += src.DomChecks
	dst.NodesOpened += src.NodesOpened
	dst.NodesPruned += src.NodesPruned
	dst.PointsPruned += src.PointsPruned
	dst.CPUSeconds += src.CPUSeconds
	dst.Emissions += src.Emissions
	// Shards run concurrently: the virtual wall-clock is the slowest
	// shard, not the sum.
	if src.TotalSeconds > dst.TotalSeconds {
		dst.TotalSeconds = src.TotalSeconds
	}
}

// identityDims returns [0, n).
func identityDims(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Query answers POST /tables/{t}/query at the coordinator for both
// request modes (planner and dynamic), reusing the single-node wire
// contract end to end.
func (co *Coordinator) Query(ctx context.Context, ct *ctable, req serve.QueryRequest) (*serve.QueryResponse, error) {
	co.queries.Add(1)
	planMode, err := req.PlanMode()
	if err != nil {
		return nil, err
	}
	if planMode {
		return co.planQuery(ctx, ct, req)
	}
	return co.dynamicQuery(ctx, ct, req)
}

// planQuery is the planner-mode scatter/gather: plan once against
// merged per-shard statistics, fan the per-shard plan out (variant
// preserved, top-k stripped — each shard over-fetches its full local
// variant skyline), merge, then re-rank globally.
func (co *Coordinator) planQuery(ctx context.Context, ct *ctable, req serve.QueryRequest) (*serve.QueryResponse, error) {
	start := time.Now()
	q, err := ct.schema.PlanQuery(req)
	if err != nil {
		return nil, err
	}
	stats, err := co.ShardStats(ctx, ct)
	if err != nil {
		return nil, err
	}
	explain, err := co.planOnce(ct, q, stats)
	if err != nil {
		return nil, err
	}

	// A ranking with the UnionRanker capability (skyline layers) is
	// evaluated over the *un-eliminated* union of shard-local ranked
	// results: each shard ships its own layers-≤K rows (a row's global
	// layer never exceeds K unless its local layer already does) and the
	// coordinator re-ranks the union. Every other ranking scatters the
	// unranked variant and re-ranks the merged skyline globally.
	var unionRanker plan.UnionRanker
	if req.TopK > 0 && q.Rank != plan.RankNone {
		r, ok := plan.LookupRanker(string(q.Rank))
		if !ok {
			return nil, fmt.Errorf("cluster: unknown rank %q", q.Rank)
		}
		unionRanker, _ = r.(plan.UnionRanker)
	}

	// The scatter request: same variant, no top-k (rank scores are
	// global — a shard-local rank could evict globally surviving rows),
	// no row limit (the merge needs every candidate), and the
	// coordinator's algorithm choice pinned so shards skip re-planning.
	// Union rankings keep top-k and rank: the shard-local ranked result
	// is exactly what the union merge consumes.
	sreq := req
	sreq.TopK, sreq.Rank, sreq.Ideal = 0, "", nil
	sreq.Limit, sreq.Explain = 0, false
	if unionRanker != nil {
		sreq.TopK, sreq.Rank = req.TopK, req.Rank
	}
	if sreq.Algo == "" {
		sreq.Algo = explain.Algorithm
	}

	keptTO, keptPO := identityDims(ct.schema.NumTO()), identityDims(ct.schema.NumPO())
	if q.Subspace != nil {
		keptTO, keptPO = q.Subspace.TO, q.Subspace.PO
	}
	doms := make([]*poset.Domain, len(keptPO))
	for j, d := range keptPO {
		doms[j] = ct.domains[d]
	}
	g := &gather{
		ct: ct, keptTO: keptTO, keptPO: keptPO, doms: doms,
		stats: stats,
		// Min-corner pruning is unsound for union rankings: a dominated
		// shard's rows are past layer 1, not past layer K.
		prune:  len(co.shards) > 1 && unionRanker == nil,
		noElim: unionRanker != nil,
	}
	g.query = func(ctx context.Context, i int) (*serve.QueryResponse, error) {
		var resp serve.QueryResponse
		err := co.readShard(ctx, i, http.MethodPost, co.shards[i].tablePath(ct.name, "/query"), g.pin(i), sreq, &resp)
		return &resp, err
	}
	gr, err := g.run(ctx, co)
	if err != nil {
		return nil, err
	}
	co.pruned.Add(int64(len(gr.pruned)))

	merged := gr.merged
	// Weight-restricted skylines: each shard already restricted its local
	// result (FWeights rode the scatter), and F-dominance is transitive,
	// so one member-only elimination pass over the merged union is exact.
	// Sound under pruning too: a pruned shard's rows are t-dominated —
	// hence F-dominated — by a gathered candidate.
	if len(q.FWeights) > 0 && unionRanker == nil {
		merged = restrictCandidates(g, &q, merged)
	}
	if req.TopK > 0 {
		if unionRanker != nil {
			merged = rankUnion(g, unionRanker, &q, req.TopK, merged)
		} else if merged, err = co.rank(ctx, ct, g, req, q, merged); err != nil {
			return nil, err
		}
	}
	explain.ObservedSeconds = time.Since(start).Seconds()
	explain.ObservedSkyline = len(merged)
	explain.CacheHit = gr.cacheHit

	resp := co.response(ct, gr, merged, req.Limit)
	resp.CacheHit = gr.cacheHit
	resp.Algo = explain.Algorithm
	if req.Explain {
		resp.Plan = explain
	}
	return resp, nil
}

// planOnce reuses internal/plan against a schema-shaped dataset plus
// the merged shard statistics: the coordinator decides the algorithm
// (and validates the query) exactly once, instead of N times.
func (co *Coordinator) planOnce(ct *ctable, q plan.Query, stats []serve.TableStatsInfo) (*plan.Explain, error) {
	shape := &core.Dataset{Domains: ct.domains}
	// One zero row gives the dataset its TO dimensionality; it is never
	// executed — the plan is only consulted for its decisions.
	shape.Pts = []core.Point{{TO: make([]int32, ct.schema.NumTO()), PO: make([]int32, ct.schema.NumPO())}}
	p, err := plan.New(shape, q, plan.Env{Stats: MergedStats(stats)})
	if err != nil {
		return nil, err
	}
	ex := p.Explain
	return &ex, nil
}

// rank orders the merged skyline globally and keeps the best K — the
// re-rank half of distributed top-k, dispatched through the plan.Ranker
// registry by capability. WireScorer rankings (ideal) are row-intrinsic
// and score at the coordinator; PartialScorer rankings (domcount,
// dpidp) scatter the candidates to every shard — including pruned ones:
// their rows are still part of R — and combine the partial scores. Ties
// break on row values (then shard, row), which is deterministic across
// any placement.
func (co *Coordinator) rank(ctx context.Context, ct *ctable, g *gather, req serve.QueryRequest, q plan.Query, merged []candidate) ([]candidate, error) {
	k := req.TopK
	if q.Rank != plan.RankNone {
		r, ok := plan.LookupRanker(string(q.Rank))
		if !ok {
			return nil, fmt.Errorf("cluster: unknown rank %q", q.Rank)
		}
		var scores []float64
		switch s := r.(type) {
		case plan.WireScorer:
			rows := make([]plan.WireRow, len(merged))
			for i := range merged {
				rows[i] = plan.WireRow{TO: merged[i].row.TO, PO: merged[i].pt.PO}
			}
			scores = s.WireScores(g.wireContext(&q), rows)
		case plan.PartialScorer:
			parts, err := co.scatterPartials(ctx, ct, g, req, merged)
			if err != nil {
				return nil, err
			}
			if scores, err = s.CombinePartials(parts, len(merged)); err != nil {
				return nil, fmt.Errorf("cluster: %s", err)
			}
		default:
			return nil, fmt.Errorf("cluster: rank %q has no distributed evaluation", q.Rank)
		}
		return sortCandidates(merged, scores, k), nil
	}
	// Unranked: keep a merge-order prefix.
	if k < len(merged) {
		merged = merged[:k]
	}
	return merged, nil
}

// wireContext assembles the coordinator-side scoring context.
func (g *gather) wireContext(q *plan.Query) *plan.WireContext {
	return &plan.WireContext{Query: q, KeptTO: g.keptTO, KeptPO: g.keptPO, Doms: g.doms}
}

// scatterPartials fans the merged candidates out to every shard for
// partial scoring (/domcount with the ranking named). The rank field is
// left empty for domcount, preserving the endpoint's original request
// shape.
func (co *Coordinator) scatterPartials(ctx context.Context, ct *ctable, g *gather, req serve.QueryRequest, merged []candidate) ([]plan.Partials, error) {
	dreq := serve.DomCountRequest{Subspace: req.Subspace, Where: req.Where}
	if r := plan.Rank(req.Rank); r != plan.RankDomCount {
		dreq.Rank = req.Rank
	}
	for i := range merged {
		dreq.Rows = append(dreq.Rows, serve.RowSpec{TO: merged[i].row.TO, PO: merged[i].row.PO})
	}
	resps := make([]serve.DomCountResponse, len(co.shards))
	errs := co.scatter(func(i int) error {
		return co.readShard(ctx, i, http.MethodPost, co.shards[i].tablePath(ct.name, "/domcount"), g.pin(i), dreq, &resps[i])
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	parts := make([]plan.Partials, len(resps))
	for i, r := range resps {
		parts[i] = plan.Partials{Counts: r.Counts}
		for _, h := range r.Hists {
			parts[i].Hists = append(parts[i].Hists, plan.KHist{Ks: h.Ks, Counts: h.Counts})
		}
	}
	return parts, nil
}

// rankUnion evaluates a UnionRanker over the un-eliminated gathered
// union: the ranker scores (and possibly excludes) every row, and the
// survivors order by (score, row values, shard, row) with no count
// truncation — a union ranking's k is a depth bound the shards already
// applied, not a row budget.
func rankUnion(g *gather, ur plan.UnionRanker, q *plan.Query, k int, merged []candidate) []candidate {
	pts := make([]core.Point, len(merged))
	for i := range merged {
		pts[i] = merged[i].pt
	}
	scores, keep := ur.RankUnion(g.wireContext(q), pts, k)
	kept := make([]candidate, 0, len(merged))
	keptScores := make([]float64, 0, len(merged))
	for i := range merged {
		if keep[i] {
			kept = append(kept, merged[i])
			keptScores = append(keptScores, scores[i])
		}
	}
	return sortCandidates(kept, keptScores, len(kept))
}

// restrictCandidates applies the F-dominance weight constraint to the
// merged skyline, eliminating members F-dominated by another member
// (exact by transitivity; see plan/fdom.go).
func restrictCandidates(g *gather, q *plan.Query, merged []candidate) []candidate {
	pts := make([]core.Point, len(merged))
	for i := range merged {
		pts[i] = merged[i].pt
	}
	keep := plan.FDomSurvivors(g.doms, plan.FVertices(q.FWeights, g.keptTO), pts)
	out := make([]candidate, len(keep))
	for i, j := range keep {
		out[i] = merged[j]
	}
	return out
}

// sortCandidates orders candidates by (score ascending, row values,
// shard, row index) and keeps the first k.
func sortCandidates(merged []candidate, scores []float64, k int) []candidate {
	idx := make([]int, len(merged))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] < scores[ib]
		}
		if c := compareRows(&merged[ia].row, &merged[ib].row); c != 0 {
			return c < 0
		}
		if merged[ia].shard != merged[ib].shard {
			return merged[ia].shard < merged[ib].shard
		}
		return merged[ia].row.Row < merged[ib].row.Row
	})
	if k < len(idx) {
		idx = idx[:k]
	}
	out := make([]candidate, len(idx))
	for i, j := range idx {
		out[i] = merged[j]
	}
	return out
}

// compareRows orders rows by their values, lexicographically.
func compareRows(a, b *serve.SkylineRow) int {
	for d := range a.TO {
		if d >= len(b.TO) {
			return 1
		}
		if a.TO[d] != b.TO[d] {
			if a.TO[d] < b.TO[d] {
				return -1
			}
			return 1
		}
	}
	for d := range a.PO {
		if d >= len(b.PO) {
			return 1
		}
		if a.PO[d] != b.PO[d] {
			if a.PO[d] < b.PO[d] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// dynamicQuery scatters a dTSS-mode request (per-request preference
// DAGs, optional ideal point, optional baseline) and merges under the
// *request's* domains — for fully dynamic queries on the |v−ideal|
// transformed coordinates, where statistics corners are meaningless,
// so shard pruning stays off.
func (co *Coordinator) dynamicQuery(ctx context.Context, ct *ctable, req serve.QueryRequest) (*serve.QueryResponse, error) {
	if req.Baseline && req.Ideal != nil {
		return nil, fmt.Errorf("baseline does not support ideal-point queries")
	}
	doms, err := ct.schema.QueryDomains(req.Orders)
	if err != nil {
		return nil, err
	}
	if req.Ideal != nil && len(req.Ideal) != ct.schema.NumTO() {
		return nil, fmt.Errorf("ideal point has %d values, table has %d TO columns",
			len(req.Ideal), ct.schema.NumTO())
	}
	sreq := req
	sreq.Limit = 0
	g := &gather{
		ct:     ct,
		keptTO: identityDims(ct.schema.NumTO()),
		keptPO: identityDims(ct.schema.NumPO()),
		doms:   doms,
		ideal:  req.Ideal,
	}
	g.query = func(ctx context.Context, i int) (*serve.QueryResponse, error) {
		var resp serve.QueryResponse
		err := co.readShard(ctx, i, http.MethodPost, co.shards[i].tablePath(ct.name, "/query"), g.pin(i), sreq, &resp)
		return &resp, err
	}
	// Plain dynamic queries (no distance transform) still benefit from
	// pruning when statistics are available; a stats fetch failure just
	// disables it.
	if req.Ideal == nil && len(co.shards) > 1 {
		if stats, err := co.ShardStats(ctx, ct); err == nil {
			g.stats, g.prune = stats, true
		}
	}
	gr, err := g.run(ctx, co)
	if err != nil {
		return nil, err
	}
	co.pruned.Add(int64(len(gr.pruned)))
	resp := co.response(ct, gr, gr.merged, req.Limit)
	resp.CacheHit = gr.cacheHit
	return resp, nil
}

// Skyline answers GET /tables/{t}/skyline at the coordinator: the
// static skyline under the table's own orders, ?algo/?parallel passed
// through to every shard, merged with the t-dominance pass.
func (co *Coordinator) Skyline(ctx context.Context, ct *ctable, params url.Values) (*serve.QueryResponse, error) {
	co.queries.Add(1)
	limit := 0
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad limit=%q: %w", v, err)
		}
		limit = n
	}
	scatterParams := url.Values{}
	for _, k := range []string{"algo", "parallel"} {
		if v := params.Get(k); v != "" {
			scatterParams.Set(k, v)
		}
	}
	path := "/skyline"
	if enc := scatterParams.Encode(); enc != "" {
		path += "?" + enc
	}
	g := &gather{
		ct:     ct,
		keptTO: identityDims(ct.schema.NumTO()),
		keptPO: identityDims(ct.schema.NumPO()),
		doms:   ct.domains,
	}
	g.query = func(ctx context.Context, i int) (*serve.QueryResponse, error) {
		var resp serve.QueryResponse
		err := co.readShard(ctx, i, http.MethodGet, co.shards[i].tablePath(ct.name, path), g.pin(i), nil, &resp)
		return &resp, err
	}
	if len(co.shards) > 1 {
		if stats, err := co.ShardStats(ctx, ct); err == nil {
			g.stats, g.prune = stats, true
		}
	}
	gr, err := g.run(ctx, co)
	if err != nil {
		return nil, err
	}
	co.pruned.Add(int64(len(gr.pruned)))
	resp := co.response(ct, gr, gr.merged, limit)
	if v := params.Get("algo"); v != "" {
		resp.Algo = v
	}
	return resp, nil
}

// DomCount answers POST /tables/{t}/domcount at the coordinator by
// summing every shard's partial counts.
func (co *Coordinator) DomCount(ctx context.Context, ct *ctable, req serve.DomCountRequest) (*serve.DomCountResponse, error) {
	resps := make([]serve.DomCountResponse, len(co.shards))
	errs := co.scatter(func(i int) error {
		return co.readShard(ctx, i, http.MethodPost, co.shards[i].tablePath(ct.name, "/domcount"), 0, req, &resps[i])
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	out := &serve.DomCountResponse{Table: ct.name, Counts: make([]int64, len(req.Rows))}
	for _, r := range resps {
		out.Version += r.Version
		if len(r.Counts) != len(out.Counts) {
			return nil, fmt.Errorf("cluster: shard returned %d counts for %d candidates", len(r.Counts), len(out.Counts))
		}
		for i, c := range r.Counts {
			out.Counts[i] += c
		}
	}
	return out, nil
}

// response renders the merged candidates in the single-node wire shape
// plus the cluster metadata.
func (co *Coordinator) response(ct *ctable, gr *gathered, merged []candidate, limit int) *serve.QueryResponse {
	var version int64
	for _, v := range gr.versions {
		version += v
	}
	rows := merged
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	sky := make([]serve.SkylineRow, len(rows))
	for i := range rows {
		shard := rows[i].shard
		sky[i] = serve.SkylineRow{
			Row:   rows[i].row.Row,
			TO:    rows[i].row.TO,
			PO:    rows[i].row.PO,
			Shard: &shard,
		}
	}
	return &serve.QueryResponse{
		Table:   ct.name,
		Version: version,
		Rows:    gr.rowsTot,
		Count:   len(merged),
		Skyline: sky,
		Metrics: gr.metrics,
		Cluster: &serve.ClusterMeta{
			Shards:   len(co.shards),
			Versions: gr.versions,
			Pruned:   gr.pruned,
		},
	}
}
