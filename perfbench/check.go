package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/serve"
)

// order is a preference DAG compiled for the oracle: reach[v] is the
// bitset of values v is strictly preferred to (transitive closure of the
// edges) and depth[v] the longest edge path from a source to v, so a
// preferred value always has a smaller depth. It is built from the wire
// edges alone, independent of the server's interval encoding.
type order struct {
	reach [][]uint64
	depth []int64
}

func compileOrder(values []string, edges [][2]string) (*order, error) {
	idx := make(map[string]int, len(values))
	for i, v := range values {
		idx[v] = i
	}
	n := len(values)
	out := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range edges {
		a, ok1 := idx[e[0]]
		b, ok2 := idx[e[1]]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("edge %v names an unknown value", e)
		}
		out[a] = append(out[a], b)
		indeg[b]++
	}
	var topo []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			topo = append(topo, v)
		}
	}
	for i := 0; i < len(topo); i++ {
		for _, u := range out[topo[i]] {
			if indeg[u]--; indeg[u] == 0 {
				topo = append(topo, u)
			}
		}
	}
	if len(topo) != n {
		return nil, fmt.Errorf("preference edges contain a cycle")
	}
	o := &order{reach: make([][]uint64, n), depth: make([]int64, n)}
	words := (n + 63) / 64
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		r := make([]uint64, words)
		for _, u := range out[v] {
			r[u/64] |= 1 << (u % 64)
			for w := range r {
				r[w] |= o.reach[u][w]
			}
		}
		o.reach[v] = r
	}
	for _, v := range topo {
		for _, u := range out[v] {
			o.depth[u] = max(o.depth[u], o.depth[v]+1)
		}
	}
	return o, nil
}

func (o *order) prefers(a, b int32) bool { return o.reach[a][b/64]&(1<<(b%64)) != 0 }

// oracleSkyline returns the ids of the skyline of rows on the kept
// dimensions under orders (indexed by table PO column). Rows are visited
// in ascending (TO sum + PO depth) order — a dominator always precedes
// what it dominates — and each is compared against the skyline found so
// far; any dominated row is dominated by some skyline row, so the
// pairwise checks needed are exactly those against skyline members.
func oracleSkyline(rows []core.Point, keptTO, keptPO []int, orders []*order) []int32 {
	key := make([]int64, len(rows))
	perm := make([]int, len(rows))
	for i := range rows {
		perm[i] = i
		for _, d := range keptTO {
			key[i] += int64(rows[i].TO[d])
		}
		for _, d := range keptPO {
			key[i] += orders[d].depth[rows[i].PO[d]]
		}
	}
	sort.Slice(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })
	var sky []int
	for _, i := range perm {
		dominated := false
		for _, j := range sky {
			if dominates(&rows[j], &rows[i], keptTO, keptPO, orders) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, i)
		}
	}
	ids := make([]int32, len(sky))
	for k, i := range sky {
		ids[k] = rows[i].ID
	}
	return ids
}

func dominates(a, b *core.Point, keptTO, keptPO []int, orders []*order) bool {
	strict := false
	for _, d := range keptTO {
		if a.TO[d] > b.TO[d] {
			return false
		}
		if a.TO[d] < b.TO[d] {
			strict = true
		}
	}
	for _, d := range keptPO {
		if a.PO[d] == b.PO[d] {
			continue
		}
		if !orders[d].prefers(a.PO[d], b.PO[d]) {
			return false
		}
		strict = true
	}
	return strict
}

// mirror is the generator's copy of one table, advanced by the same
// batches the server acknowledged.
type mirror struct {
	spec   serve.TableSpec
	schema *serve.Schema
	orders []*order
	doms   []*poset.Domain
	rows   []core.Point
	// oracle answers at the current version, by request key.
	memo map[string]answer
}

func newMirror(spec serve.TableSpec) (*mirror, error) {
	sc, err := serve.NewSchema(spec.TOColumns, spec.Orders)
	if err != nil {
		return nil, err
	}
	doms, err := sc.BaseDomains()
	if err != nil {
		return nil, err
	}
	m := &mirror{spec: spec, schema: sc, doms: doms, rows: ptsOf(spec.Rows, spec.Orders)}
	for _, o := range spec.Orders {
		c, err := compileOrder(o.Values, o.Edges)
		if err != nil {
			return nil, err
		}
		m.orders = append(m.orders, c)
	}
	return m, nil
}

// apply performs a batch exactly as the server defines it: removals by
// current row index first, survivors renumbered in order, adds appended.
func (m *mirror) apply(b *serve.BatchRequest) {
	drop := make(map[int]bool, len(b.Remove))
	for _, r := range b.Remove {
		drop[r] = true
	}
	next := make([]core.Point, 0, len(m.rows)+len(b.Add))
	for i, p := range m.rows {
		if !drop[i] {
			p.ID = int32(len(next))
			next = append(next, p)
		}
	}
	for _, p := range ptsOf(b.Add, m.spec.Orders) {
		p.ID = int32(len(next))
		next = append(next, p)
	}
	m.rows = next
	m.memo = nil
}

// answer is what the oracle expects for one request.
type answer struct {
	ids     []int32 // expected row ids (order matters when ranked)
	ranked  bool    // compare as a sequence
	subsetK int     // > 0: unranked top-k — any K of the skyline
}

// expect computes the oracle answer for o at the mirror's version.
func (m *mirror) expect(o *op) (answer, error) {
	req := serve.QueryRequest{}
	if o.query != nil {
		req = *o.query
	}
	return m.answerFor(req)
}

// answerFor memoizes compute per request at the mirror's version.
func (m *mirror) answerFor(req serve.QueryRequest) (answer, error) {
	key := string(mustJSON(req))
	if m.memo == nil {
		m.memo = map[string]answer{}
	}
	if a, ok := m.memo[key]; ok {
		return a, nil
	}
	a, err := m.compute(req)
	if err == nil {
		m.memo[key] = a
	}
	return a, err
}

// compute derives the oracle answer for req on the mirror's rows.
func (m *mirror) compute(req serve.QueryRequest) (answer, error) {
	allTO, allPO := seq(len(m.spec.TOColumns)), seq(len(m.spec.Orders))
	q, err := m.schema.PlanQuery(req)
	if err != nil {
		return answer{}, err
	}
	keptTO, keptPO := allTO, allPO
	if q.Subspace != nil {
		keptTO, keptPO = q.Subspace.TO, q.Subspace.PO
	}
	// R: rows passing every predicate, with table ids.
	var rows []core.Point
	for _, p := range m.rows {
		if passes(&p, q.Where) {
			rows = append(rows, p)
		}
	}
	base := req
	base.TopK, base.Rank, base.FWeights, base.Explain, base.NoCache = 0, "", nil, false, false
	var sky []int32
	if req.TopK > 0 || len(req.FWeights) > 0 || req.Explain || req.NoCache {
		b, err := m.answerFor(base)
		if err != nil {
			return answer{}, err
		}
		sky = b.ids
	} else {
		sky = oracleSkyline(rows, keptTO, keptPO, m.orders)
	}
	switch {
	case len(req.FWeights) > 0 || (q.Rank != plan.RankNone && q.Rank != plan.RankDPIDP):
		return answer{}, fmt.Errorf("no oracle for rank %q / fweights", q.Rank)
	case q.TopK <= 0:
		return answer{ids: sky}, nil
	case q.Rank == plan.RankNone:
		return answer{ids: sky, subsetK: q.TopK}, nil
	}
	return answer{ids: m.rankDPIDP(rows, sky, keptTO, keptPO, q.TopK), ranked: true}, nil
}

// rankDPIDP orders the skyline by dp-idp score (each row of R dominated
// by exactly j members gives 1/j to each, scored by
// core.DPIDPScoreFromHist), best first, ties by ascending id, and keeps
// k. A dominator has a smaller (TO sum + PO depth) key, so only members
// with smaller keys are tested.
func (m *mirror) rankDPIDP(rows []core.Point, sky []int32, keptTO, keptPO []int, k int) []int32 {
	keyOf := func(p *core.Point) int64 {
		var s int64
		for _, d := range keptTO {
			s += int64(p.TO[d])
		}
		for _, d := range keptPO {
			s += m.orders[d].depth[p.PO[d]]
		}
		return s
	}
	byID := make(map[int32]*core.Point, len(rows))
	for i := range rows {
		byID[rows[i].ID] = &rows[i]
	}
	type member struct {
		key  int64
		pt   *core.Point
		hist map[int32]int64
	}
	members := make([]*member, len(sky))
	byMember := make(map[int32]*member, len(sky))
	for i, id := range sky {
		members[i] = &member{key: keyOf(byID[id]), pt: byID[id], hist: map[int32]int64{}}
		byMember[id] = members[i]
	}
	sort.Slice(members, func(a, b int) bool { return members[a].key < members[b].key })
	var doms []*member
	for i := range rows {
		kr := keyOf(&rows[i])
		doms = doms[:0]
		for _, mb := range members {
			if mb.key >= kr {
				break
			}
			if dominates(mb.pt, &rows[i], keptTO, keptPO, m.orders) {
				doms = append(doms, mb)
			}
		}
		for _, mb := range doms {
			mb.hist[int32(len(doms))]++
		}
	}
	score := make(map[int32]float64, len(sky))
	for _, id := range sky {
		score[id] = core.DPIDPScoreFromHist(byMember[id].hist)
	}
	out := append([]int32(nil), sky...)
	sort.Slice(out, func(a, b int) bool {
		if score[out[a]] != score[out[b]] {
			return score[out[a]] > score[out[b]]
		}
		return out[a] < out[b]
	})
	return out[:min(k, len(out))]
}

func passes(p *core.Point, where []plan.Predicate) bool {
	for _, pr := range where {
		switch pr.Kind {
		case plan.TORange:
			v := int64(p.TO[pr.Dim])
			if (pr.HasLo && v < pr.Lo) || (pr.HasHi && v > pr.Hi) {
				return false
			}
		case plan.POIn:
			ok := false
			for _, a := range pr.In {
				ok = ok || a == p.PO[pr.Dim]
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// verify compares one response against the oracle answer. Single-node
// answers are compared by row index; cluster answers by value tuple,
// since their row indexes are shard-scoped.
func (m *mirror) verify(res *result, want answer, byValue bool) error {
	got := res.vals
	exp := make([]string, len(want.ids))
	for i, id := range want.ids {
		exp[i] = m.key(id)
	}
	if !byValue {
		got = make([]string, len(res.ids))
		for i, id := range res.ids {
			if id < 0 || int(id) >= len(m.rows) {
				return fmt.Errorf("row %d out of range at version %d", id, res.version)
			}
			got[i] = m.key(id)
			if got[i] != res.vals[i] {
				return fmt.Errorf("row %d carries values %s, the table holds %s", id, res.vals[i], got[i])
			}
		}
	}
	switch {
	case want.subsetK > 0:
		if n := min(want.subsetK, len(exp)); len(got) != n {
			return fmt.Errorf("top-%d returned %d rows, want %d", want.subsetK, len(got), n)
		}
		in := multiset(exp)
		for _, g := range got {
			if in[g] == 0 {
				return fmt.Errorf("top-k row %s is not a skyline row", g)
			}
			in[g]--
		}
	case want.ranked:
		if strings.Join(got, ";") != strings.Join(exp, ";") {
			return fmt.Errorf("ranked answer differs: got %d rows %v…, want %d rows %v…", len(got), head(got), len(exp), head(exp))
		}
	default:
		if len(got) != len(exp) {
			return fmt.Errorf("answer has %d rows, oracle %d", len(got), len(exp))
		}
		in := multiset(exp)
		for _, g := range got {
			if in[g] == 0 {
				return fmt.Errorf("row %s not in the oracle answer", g)
			}
			in[g]--
		}
	}
	if res.count != 0 && res.count != len(got) && want.subsetK == 0 {
		return fmt.Errorf("count %d but %d rows", res.count, len(got))
	}
	return nil
}

func (m *mirror) key(id int32) string {
	p := &m.rows[id]
	to := make([]int64, len(p.TO))
	for d, v := range p.TO {
		to[d] = int64(v)
	}
	po := make([]string, len(p.PO))
	for d, v := range p.PO {
		po[d] = m.spec.Orders[d].Values[v]
	}
	return rowKey(to, po)
}

func multiset(xs []string) map[string]int {
	m := make(map[string]int, len(xs))
	for _, x := range xs {
		m[x]++
	}
	return m
}

func head(xs []string) []string { return xs[:min(3, len(xs))] }

// checkAll verifies every successful read against the mirrors, version by
// version. The mirrors start at the tables' state after set-up and replay
// the acknowledged batches in order; each version's answers are checked
// on a frozen copy of the mirror by one of `workers` goroutines. It
// returns the number of wrong answers and the first few mismatches.
func checkAll(w *workload, initial map[string]*mirror, startVersion map[string]int64, applied map[string][]*result, results []*result, workers int) (wrong int, msgs []string) {
	type job struct {
		m    *mirror
		ver  int64
		name string
		todo []*result
	}
	jobs := make(chan job)
	var mu sync.Mutex
	fail := func(res *result, name string, err error) {
		mu.Lock()
		defer mu.Unlock()
		wrong++
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf("op %d (%s %s %s): %v", res.op.idx, res.op.kind, res.op.shape, name, err))
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				for _, res := range j.todo {
					if got := versionOf(res, w.cluster); got != j.ver {
						fail(res, j.name, fmt.Errorf("answer at version %d, which no acknowledged batch produced", got))
						continue
					}
					want, err := j.m.expect(res.op)
					if err == nil {
						err = j.m.verify(res, want, w.cluster)
					}
					if err != nil {
						fail(res, j.name, err)
					}
				}
			}
		}()
	}
	for name, m := range initial {
		byVer := map[int64][]*result{}
		var vers []int64
		for _, r := range results {
			if r.err == nil && r.op.table == name && r.op.kind != kindWrite {
				v := versionOf(r, w.cluster)
				if byVer[v] == nil {
					vers = append(vers, v)
				}
				byVer[v] = append(byVer[v], r)
			}
		}
		sort.Slice(vers, func(a, b int) bool { return vers[a] < vers[b] })
		ver := startVersion[name]
		batches := applied[name]
		for _, v := range vers {
			for v > ver && len(batches) > 0 {
				m.apply(batches[0].batch)
				ver = versionOf(batches[0], w.cluster)
				batches = batches[1:]
			}
			// apply replaces m.rows, so the frozen copy stays at ver.
			frozen := *m
			frozen.memo = nil
			jobs <- job{m: &frozen, ver: ver, name: name, todo: byVer[v]}
		}
	}
	close(jobs)
	wg.Wait()
	return wrong, msgs
}

// versionOf is the snapshot a response was served at: the node version,
// or on a coordinator the sum of the per-shard vector.
func versionOf(r *result, cluster bool) int64 {
	if !cluster || len(r.versions) == 0 {
		return r.version
	}
	var s int64
	for _, v := range r.versions {
		s += v
	}
	return s
}

// ptsOf converts wire rows to core points, mapping PO labels to their
// index in the column's value list.
func ptsOf(rows []serve.RowSpec, orders []serve.OrderSpec) []core.Point {
	ids := make([]map[string]int32, len(orders))
	for d, o := range orders {
		ids[d] = make(map[string]int32, len(o.Values))
		for i, v := range o.Values {
			ids[d][v] = int32(i)
		}
	}
	pts := make([]core.Point, len(rows))
	for i, r := range rows {
		p := core.Point{ID: int32(i), TO: make([]int32, len(r.TO)), PO: make([]int32, len(r.PO))}
		for d, v := range r.TO {
			p.TO[d] = int32(v)
		}
		for d, v := range r.PO {
			p.PO[d] = ids[d][v]
		}
		pts[i] = p
	}
	return pts
}
