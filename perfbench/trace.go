package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	tss "repro"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
)

// span is one timed call into a layer. Spans of one op share req (the
// op index); parent is the enclosing span's id (-1 for an op's root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) ms() float64 { return float64(s.End.Sub(s.Start)) / 1e6 }

// layer is the span name's prefix: http, serve, tss, plan, core, store,
// cluster, or loadgen for the op root (the generator's own work).
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "loadgen"
}

// tracer keeps spans in memory. The replay is single-threaded, except
// that the in-process server may call the store wrapper from its own
// goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	on    bool // spans are recorded only during the traced pass
	spans []span
	stack []int
	req   int
}

// record turns span recording on or off.
func (t *tracer) record(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: time.Now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 {
		return 0
	}
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
	return now.Sub(t.spans[id].Start)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for j, v := range ivs {
			if j == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			} else if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		self[i] = s.End.Sub(s.Start) - covered
	}
	return self
}

// timedStore wraps the in-process server's storage engine so calls into
// the store module are spans.
// It also counts the WAL bytes appended and the checkpoints taken while
// tracing is on.
type timedStore struct {
	store.Store
	tr          *tracer
	walBytes    int64
	checkpoints int
}

func (s *timedStore) AppendMutation(name string, m *store.Mutation) (err error) {
	before, _ := s.Store.LogSize(name)
	d := s.tr.timed("store.append", func() { err = s.Store.AppendMutation(name, m) })
	if after, _ := s.Store.LogSize(name); d > 0 && after > before {
		s.walBytes += after - before
	}
	return err
}

func (s *timedStore) SaveSnapshot(name string, snap *store.Snapshot) (err error) {
	if s.tr.timed("store.checkpoint", func() { err = s.Store.SaveSnapshot(name, snap) }) > 0 {
		s.checkpoints++
	}
	return err
}

// firstRowWriter is an in-memory ResponseWriter that timestamps the
// first streamed row frame.
type firstRowWriter struct {
	hdr   http.Header
	code  int
	buf   bytes.Buffer
	first time.Time
}

func (w *firstRowWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *firstRowWriter) WriteHeader(code int) { w.code = code }
func (w *firstRowWriter) Flush()               {}
func (w *firstRowWriter) Write(b []byte) (int, error) {
	if w.first.IsZero() && bytes.Contains(b, []byte(`"type":"row"`)) {
		w.first = time.Now()
	}
	return w.buf.Write(b)
}

// tableState is the benchmark's in-process copy of one table at the
// real server's current version, in every layer's own representation.
type tableState struct {
	m       *mirror
	ds      *core.Dataset
	tbl     *tss.Table
	memo    *plan.MemoCache
	stats   *plan.Stats
	learned *plan.Learned
	dyn     *core.DynamicDB
	fullSky []int32
	regret  bool // plan.regret measured for this table
}

func newTableState(spec serve.TableSpec, m *mirror) (*tableState, error) {
	orders := make([]*tss.Order, len(spec.Orders))
	for d, o := range spec.Orders {
		orders[d] = tss.NewOrder(o.Values...)
		for _, e := range o.Edges {
			orders[d].Prefer(e[0], e[1])
		}
	}
	tbl := tss.NewTable(spec.TOColumns, orders...)
	for _, p := range m.rows {
		to := make([]int64, len(p.TO))
		for d, v := range p.TO {
			to[d] = int64(v)
		}
		po := make([]string, len(p.PO))
		for d, v := range p.PO {
			po[d] = spec.Orders[d].Values[v]
		}
		if err := tbl.Add(to, po...); err != nil {
			return nil, err
		}
	}
	ts := &tableState{m: m, tbl: tbl, memo: plan.NewMemoCache(), learned: plan.NewLearned()}
	ts.ds = m.dataset()
	ts.stats = plan.Analyze(ts.ds)
	ts.dyn = core.NewDynamicDB(ts.ds, core.Options{})
	res, err := core.MustLookup("sfs").Run(ts.ds, core.Options{})
	if err != nil {
		return nil, err
	}
	ts.fullSky = res.SkylineIDs
	return ts, nil
}

// dataset is the mirror's rows as a core dataset (table layout).
func (m *mirror) dataset() *core.Dataset {
	return &core.Dataset{Domains: m.doms, Pts: m.rows}
}

func (ts *tableState) env() plan.Env {
	return plan.Env{Stats: ts.stats, Learned: ts.learned, Cache: ts.memo}
}

// replay runs the traced pass.
type replay struct {
	tr       *tracer
	w        *workload
	d        *deployment
	hc       *http.Client
	inproc   http.Handler // in-process serve.Server (single-node workloads)
	store    *timedStore  // its storage engine
	storeDir string       // and where that keeps its files
	tabs     map[string]*tableState
	samples  map[string][]float64
	sums     map[string]float64
}

func (rp *replay) add(name string, v float64) { rp.samples[name] = append(rp.samples[name], v) }
func (rp *replay) ms(name string, d time.Duration) {
	rp.add(name, float64(d)/1e6)
}

// runTraced sets the workload up exactly as the measured run does, then
// replays its op sequence one op at a time. Each op is sent to the real
// server (the http span) and, for single-node workloads, replayed
// against an in-process serve.Server holding the same table (serve
// spans, with the storage engine's calls nested as store spans) and
// against the benchmark's own copies of the table in the tss, plan and
// core representations. Cluster ops are re-sent shard-direct to time
// the coordinator's legs. Answers are checked as in the measured run.
func runTraced(ctx context.Context, e *env, w *workload, seconds float64) (*report, error) {
	d, err := deploy(e, w)
	if err != nil {
		return nil, err
	}
	rp := &replay{tr: &tracer{}, w: w, d: d, hc: e.hc, tabs: map[string]*tableState{},
		samples: map[string][]float64{}, sums: map[string]float64{}}
	defer func() {
		if rp.store != nil {
			rp.store.Close()
		}
	}()
	for _, t := range w.tables {
		m, err := newMirror(t.spec)
		if err != nil {
			return nil, err
		}
		if err := rp.prepare(e, t, m); err != nil {
			return nil, err
		}
	}
	runner := newRunner(e.hc, d.url, d.rowsNow)
	rp.tr.record(true)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var rootMs []float64
	next := len(w.ops)
	for i, o := range w.ops {
		if time.Now().After(deadline) && i%w.cycle == 0 {
			next = i
			break
		}
		// Tracing overhead: a read is also sent once untraced at the same
		// snapshot, before the traced copy on even ops and after it on odd
		// ones, so neither side always finds the caches warm.
		untraced := func() {
			plain := &result{}
			t0 := time.Now()
			do(ctx, e.hc, d.url, o.method, o.path, bodyOf(o), nil, plain)
			rp.ms("trace.untraced", time.Since(t0))
		}
		read := o.kind == kindRead
		if read && i%2 == 0 {
			untraced()
		}
		rp.tr.req = o.idx
		root := rp.tr.begin("op")
		res := rp.step(ctx, runner, o)
		rootMs = append(rootMs, float64(rp.tr.end(root))/1e6)
		runner.record(res)
		if read && i%2 == 1 {
			untraced()
		}
	}
	tracedFor := time.Since(start)
	rp.tr.record(false)
	if err := rp.collectStatsz(); err != nil {
		return nil, err
	}
	rp.loadgen(ctx, runner, next, seconds/2, len(rootMs), tracedFor)
	e.fl.stopAll()
	rp.tr.record(true)
	if rp.store != nil {
		rp.storeFootprint()
	}
	rp.tr.record(false)

	wrong, msgs := checkAll(w, d.mirrors, d.version, runner.applied, runner.results, conns)
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "wrong answer:", m)
	}
	if err := writeSpans(e, w, rp.tr.spans); err != nil {
		return nil, err
	}
	metrics := rp.perLayer(rootMs)
	return &report{Correct: wrong == 0, Attempted: len(runner.results), Failed: runner.failures + wrong, Metrics: metrics}, nil
}

func bodyOf(o *op) []byte {
	if o.body == nil {
		return nil
	}
	return mustJSON(o.body)
}

// prepare builds the benchmark's copies of table t as the real server
// holds it after set-up, and the in-process server when the workload is
// single-node.
func (rp *replay) prepare(e *env, t *tableGen, m *mirror) error {
	if !rp.w.cluster && rp.inproc == nil {
		// The in-process server is durable (fsync on), so the store layer
		// is measured even though the workload's node is ephemeral.
		rp.storeDir = filepath.Join(e.dir, "trace-store")
		disk, err := store.OpenDisk(rp.storeDir, store.DiskOptions{})
		if err != nil {
			return err
		}
		rp.store = &timedStore{Store: disk, tr: rp.tr}
		rp.inproc = serve.NewWithConfig(serve.Config{Store: rp.store}).Handler()
	}
	if rp.inproc != nil {
		if code, _ := rp.serveInproc("POST", "/tables", mustJSON(t.spec)); code != http.StatusCreated {
			return fmt.Errorf("in-process create %s: HTTP %d", t.spec.Name, code)
		}
	}
	ts, err := newTableState(t.spec, m)
	if err != nil {
		return err
	}
	rp.tabs[t.spec.Name] = ts
	return nil
}

func (rp *replay) serveInproc(method, path string, body []byte) (int, *firstRowWriter) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := &firstRowWriter{code: http.StatusOK}
	rp.inproc.ServeHTTP(w, req)
	return w.code, w
}

// step runs one op through every layer it reaches.
func (rp *replay) step(ctx context.Context, runner *runner, o *op) *result {
	res := &result{due: time.Now()}
	res.queued = res.due
	httpMs := rp.tr.timed("http."+o.kind, func() { runner.exec(ctx, o, res) })
	if res.err != nil {
		return res
	}
	rp.sums["resp_bytes"] += float64(res.bytes)
	rp.sums["resp_rows"] += float64(len(res.ids))
	if o.kind != kindWrite && !res.cacheHit {
		rp.sums["dom_checks"] += float64(res.metrics.DomChecks)
		rp.sums["dom_rows"] += float64(res.rows)
		if res.metrics.BlocksSkipped > 0 || res.metrics.DomChecks > 0 {
			rp.sums["blocks_skipped"] += float64(res.metrics.BlocksSkipped)
			rp.sums["blocks"] += float64((res.rows + 255) / 256)
		}
	}
	if o.algo == "bbs+" {
		rp.add("rtree.nodes_opened_per_query", float64(res.metrics.NodesOpened))
	}
	if rp.w.cluster {
		rp.clusterLegs(ctx, o, res, httpMs)
		return res
	}
	// serve: the same request against the in-process server, which has
	// received the same batches in the same order, so it is at the same
	// version.
	var body []byte
	if o.kind == kindWrite {
		body = mustJSON(res.batch)
	} else {
		body = bodyOf(o)
	}
	var w *firstRowWriter
	var t0 time.Time
	serveMs := rp.tr.timed("serve."+serveRoute(o), func() {
		t0 = time.Now()
		_, w = rp.serveInproc(o.method, o.path, body)
	})
	rp.ms("serve."+serveRoute(o)+"_ms", serveMs)
	if o.kind != kindWrite {
		rp.ms("http.overhead_ms", httpMs-serveMs)
	}
	if o.kind == kindStream && !w.first.IsZero() {
		rp.ms("serve.stream_first_ms", w.first.Sub(t0))
	}
	ts := rp.tabs[o.table]
	switch {
	case o.kind == kindWrite:
		rp.replayWrite(ts, res.batch)
	case o.method == "GET" && o.kind == kindStream:
		var cur *core.Cursor
		var first time.Duration
		total := rp.tr.timed("core.cursor", func() {
			t0 := time.Now()
			cur = core.NewSTSSCursor(ts.ds, core.Options{UseMemTree: true})
			if _, ok := cur.Next(); ok {
				first = time.Since(t0)
			}
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			}
		})
		rp.ms("core.cursor_first_ms", first)
		rp.ms("core.cursor_drain_ms", total)
	case o.method == "GET":
		algo := o.algo
		if algo == "" {
			algo = "stss"
		}
		rp.ms("tss.skyline_with_ms", rp.tr.timed("tss.skyline_with", func() { _, _ = ts.tbl.SkylineWith(algo) }))
		alg := core.MustLookup(algo)
		name := "core.algo_ms." + strings.ReplaceAll(alg.Name(), "+", "plus")
		rp.ms(name, rp.tr.timed("core.algo", func() { _, _ = alg.Run(ts.ds, core.Options{UseMemTree: true}) }))
	default: // planner read, buffered or streamed
		q, err := ts.m.schema.PlanQuery(*o.query)
		if err != nil {
			return res
		}
		var p *plan.Plan
		env := ts.env()
		rp.ms("plan.new_ms", rp.tr.timed("plan.new", func() { p, err = plan.New(ts.ds, q, env) }))
		if err != nil {
			return res
		}
		auto := rp.tr.timed("plan.run", func() { _, _ = p.Run(ctx, ts.ds, env) })
		rp.ms("plan.run_ms", auto)
		if q.Hints.NoCache && q.Subspace == nil && len(q.Where) == 0 && !ts.regret {
			ts.regret = true
			rp.regret(ctx, ts, q, auto)
		}
	}
	return res
}

// serveRoute names the handler an op reaches.
func serveRoute(o *op) string {
	switch {
	case o.kind == kindWrite:
		return "batch"
	case o.method == "GET":
		return "skyline"
	}
	return "query"
}

// regret times the same unfiltered full query forced through each
// algorithm that supports it and records auto's time over the fastest.
func (rp *replay) regret(ctx context.Context, ts *tableState, q plan.Query, auto time.Duration) {
	best := time.Duration(0)
	for _, name := range []string{"stss", "sfs", "bnl", "sdc+", "bbs+"} {
		fq := q
		fq.Hints.Algorithm = name
		p, err := plan.New(ts.ds, fq, ts.env())
		if err != nil {
			continue
		}
		d := rp.tr.timed("plan.forced", func() { _, err = p.Run(ctx, ts.ds, ts.env()) })
		if err == nil && (best == 0 || d < best) {
			best = d
		}
	}
	if best > 0 {
		rp.add("plan.regret", float64(auto)/float64(best))
	}
}

// replayWrite applies the acknowledged batch to the benchmark's copies,
// timing each layer's maintenance call.
func (rp *replay) replayWrite(ts *tableState, b *serve.BatchRequest) {
	adds := make([]tss.TableRow, len(b.Add))
	for i, r := range b.Add {
		adds[i] = tss.TableRow{TO: r.TO, PO: r.PO}
	}
	var nt *tss.Table
	var bd *tss.BatchDelta
	var err error
	rp.ms("tss.apply_batch_ms", rp.tr.timed("tss.apply_batch", func() { nt, bd, err = ts.tbl.ApplyBatch(b.Remove, adds) }))
	if err != nil {
		return
	}
	oldDS := ts.ds
	ts.m.apply(b)
	newDS := ts.m.dataset()
	delta := &core.Delta{OldToNew: bd.OldToNew, Added: bd.Added}
	rp.ms("plan.memo_advance_ms", rp.tr.timed("plan.memo_advance", func() { ts.memo = ts.memo.Advance(oldDS, newDS, delta) }))
	var sky []int32
	ok := false
	rp.ms("core.maintain_ms", rp.tr.timed("core.maintain", func() {
		sky, _, ok = core.MaintainSkyline(oldDS, newDS, delta, ts.fullSky, nil, nil)
	}))
	if !ok {
		res, err := core.MustLookup("sfs").Run(newDS, core.Options{})
		if err == nil {
			sky = res.SkylineIDs
		}
	}
	var dyn *core.DynamicDB
	rp.ms("core.dynamic_apply_ms", rp.tr.timed("core.dynamic_apply", func() { dyn, err = ts.dyn.ApplyBatch(newDS, delta) }))
	if err != nil {
		dyn = core.NewDynamicDB(newDS, core.Options{})
	}
	ts.tbl, ts.ds, ts.fullSky, ts.dyn = nt, newDS, sky, dyn
	ts.stats = ts.stats.Advance(oldDS, newDS, delta.OldToNew, delta.Added)
	for _, p := range ptsOf(b.Add, ts.m.spec.Orders) {
		rp.sums["user_bytes"] += float64(rowBytes(p, ts.m.spec.Orders))
	}
}

// rowBytes is a row's logical size: 8 bytes per TO value plus its PO
// value labels.
func rowBytes(p core.Point, orders []serve.OrderSpec) int {
	n := 8 * len(p.TO)
	for d, v := range p.PO {
		n += len(orders[d].Values[v])
	}
	return n
}

// clusterLegs re-sends a coordinator op to each shard directly: the
// statistics fetch, the query leg (time to first byte and to the end)
// and, for ranked queries, the partial-score fetch.
func (rp *replay) clusterLegs(ctx context.Context, o *op, res *result, coordMs time.Duration) {
	if o.kind == kindWrite {
		return
	}
	direct := map[string]string{"X-Tss-Shard-Direct": "1"}
	var slowest time.Duration
	legRows := 0
	for _, sh := range rp.d.shards {
		rp.ms("cluster.stats_ms", rp.tr.timed("cluster.stats", func() {
			var info serve.TableStatsInfo
			_ = getJSONHdr(rp.hc, sh+"/tables/"+o.table+"/stats", direct, &info)
		}))
		var ttfb time.Duration
		var rows int
		leg := rp.tr.timed("cluster.leg", func() { ttfb, rows = timeLeg(ctx, rp.hc, sh, o, direct) })
		rp.ms("cluster.leg_ttfb_ms", ttfb)
		rp.ms("cluster.leg_ms", leg)
		slowest = max(slowest, leg)
		legRows += rows
	}
	rp.ms("cluster.merge_ms", max(0, coordMs-slowest))
	rp.sums["leg_rows"] += float64(legRows)
	rp.sums["coord_rows"] += float64(len(res.vals))
	rp.sums["pruned"] += float64(res.pruned)
	rp.sums["shards"] += float64(len(rp.d.shards))
	if o.query != nil && o.query.Rank != "" {
		cands := make([]serve.RowSpec, 0, len(res.vals))
		for _, v := range res.vals {
			cands = append(cands, parseRowKey(v))
		}
		body := mustJSON(serve.DomCountRequest{Rows: cands, Rank: o.query.Rank})
		for _, sh := range rp.d.shards {
			rp.ms("cluster.partials_ms", rp.tr.timed("cluster.partials", func() {
				r := &result{}
				do(ctx, rp.hc, sh, "POST", "/tables/"+o.table+"/domcount", body, direct, r)
			}))
		}
	}
}

// timeLeg sends op o to one shard directly and returns the time to the
// first response byte and the rows the shard returned.
func timeLeg(ctx context.Context, hc *http.Client, base string, o *op, hdr map[string]string) (time.Duration, int) {
	var rd io.Reader
	if b := bodyOf(o); b != nil {
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, rd)
	if err != nil {
		return 0, 0
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	_, _ = br.Peek(1)
	ttfb := time.Since(t0)
	b, _ := io.ReadAll(br)
	if strings.Contains(o.path, "stream=1") {
		return ttfb, bytes.Count(b, []byte(`"type":"row"`))
	}
	var qr serve.QueryResponse
	_ = json.Unmarshal(b, &qr)
	return ttfb, len(qr.Skyline)
}

// parseRowKey inverts rowKey.
func parseRowKey(k string) serve.RowSpec {
	to, po, _ := strings.Cut(k, "|")
	var r serve.RowSpec
	for _, f := range strings.Split(strings.TrimSuffix(to, ","), ",") {
		var v int64
		fmt.Sscan(f, &v)
		r.TO = append(r.TO, v)
	}
	if po != "" {
		r.PO = strings.Split(strings.TrimSuffix(po, ","), ",")
	}
	return r
}

func getJSONHdr(hc *http.Client, url string, hdr map[string]string, out any) error {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// collectStatsz reads the memo, ranking and maintenance counters from
// the real servers (every shard on a cluster).
func (rp *replay) collectStatsz() error {
	urls := []string{rp.d.url}
	if rp.w.cluster {
		urls = rp.d.shards
	}
	for _, u := range urls {
		var st serve.StatsResponse
		if err := getJSON(rp.hc, u+"/statsz", &st); err != nil {
			return err
		}
		for _, t := range st.Tables {
			pc := t.Stats.PlanCache
			rp.sums["memo_hits"] += float64(pc.FullHits + pc.SubspaceHits + pc.MaintainedHits)
			rp.sums["memo_misses"] += float64(pc.FullMisses + pc.SubspaceMisses)
			rp.sums["ranked_index"] += float64(pc.RankedIndex)
			rp.sums["ranked_all"] += float64(pc.RankedIndex + pc.RankedMemo + pc.RankedCold)
			rp.sums["advances"] += float64(pc.Advances)
			rp.sums["fallbacks"] += float64(pc.MaintFallbacks)
		}
	}
	return nil
}

// storeFootprint times Disk.Load of each table from the in-process
// server's store and measures the store's size on disk.
func (rp *replay) storeFootprint() {
	for _, t := range rp.w.tables {
		rp.ms("store.load_ms", rp.tr.timedRoot("store.load", func() { _, _ = rp.store.Load(t.spec.Name) }))
		for _, p := range rp.tabs[t.spec.Name].m.rows {
			rp.sums["table_user_bytes"] += float64(rowBytes(p, t.spec.Orders))
		}
	}
	rp.sums["disk_bytes"] = float64(dirSize(rp.storeDir))
}

// timedRoot records a span outside any op.
func (t *tracer) timedRoot(name string, fn func()) time.Duration {
	t.req = -1
	return t.timed(name, fn)
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// writeSpans writes every span as JSON lines next to the build outputs.
func writeSpans(e *env, w *workload, spans []span) error {
	path := filepath.Join(filepath.Dir(e.dir), "trace-"+w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return f.Close()
}

// loadgen checks the generator. On the mixed workloads it sends the
// ops after the traced ones, untraced, as an open loop on their Poisson
// due times for `seconds`: it reports how late the generator handed ops
// to connections and the offered and achieved rates, and prints the
// segment's read latencies timed from due time. A segment whose
// lateness p99 passes maxLateMs is invalid: its latencies are not
// printed. cold-scan is a closed loop only: never late, it offers what
// it achieves.
func (rp *replay) loadgen(ctx context.Context, r *runner, from int, seconds float64, tracedOps int, tracedFor time.Duration) {
	if rp.w.openRate == 0 || from >= len(rp.w.ops) {
		rate := float64(tracedOps) / tracedFor.Seconds()
		rp.add("loadgen.late_p99_ms", 0)
		rp.add("loadgen.offered_qps", rate)
		rp.add("loadgen.achieved_qps", rate)
		return
	}
	var ops []*op
	for _, o := range rp.w.ops[from:] {
		if due := o.due - rp.w.ops[from].due; due.Seconds() < seconds {
			c := *o
			c.due = due
			ops = append(ops, &c)
		}
	}
	n0 := len(r.results)
	start, end := r.openLoop(ctx, ops, 60*time.Second)
	var late, reads []float64
	completed := 0
	last := start
	for _, res := range r.results[n0:] {
		late = append(late, float64(res.queued.Sub(res.due))/1e6)
		if res.err != nil {
			continue
		}
		completed++
		if res.end.After(last) {
			last = res.end
		}
		if res.op.kind == kindRead {
			reads = append(reads, float64(res.latency())/1e6)
		}
	}
	lp, _ := tail(late, 0.99)
	rp.add("loadgen.late_p99_ms", lp)
	rp.add("loadgen.offered_qps", float64(len(ops))/end.Sub(start).Seconds())
	rp.add("loadgen.achieved_qps", float64(completed)/last.Sub(start).Seconds())
	if lp > maxLateMs {
		fmt.Printf("open-loop segment invalid: generator late p99 %.1f ms > %d ms\n", lp, maxLateMs)
		return
	}
	v, p := tail(reads, 0.99)
	fmt.Printf("open-loop segment at %.1f ops/s: read p50 %.3f ms, p%.1f %.3f ms from due time (n=%d)\n",
		rp.w.openRate, median(reads), p*100, v, len(reads))
}

// perLayer turns the samples, counters and spans into the per-layer
// metrics, prints each with its unit and sample count, and prints each
// layer's share of the traced self time.
func (rp *replay) perLayer(rootMs []float64) map[string]metric {
	out := map[string]metric{}
	med := func(name, unit string) {
		v := rp.samples[name]
		out[name] = metric{Value: median(v), Unit: unit}
		fmt.Printf("%-30s %14.4f %-6s n=%d\n", name, median(v), unit, len(v))
	}
	ratio := func(name, unit string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		out[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-30s %14.4f %-6s (%.0f / %.0f)\n", name, v, unit, num, den)
	}
	s := rp.sums
	for i := range rp.tr.spans {
		if sp := &rp.tr.spans[i]; strings.HasPrefix(sp.Name, "store.") && sp.Name != "store.load" {
			rp.add(sp.Name+"_ms", sp.ms())
		}
	}
	fmt.Printf("workload %s: traced %d ops\n", rp.w.name, len(rootMs))
	med("http.overhead_ms", "ms")
	med("serve.query_ms", "ms")
	med("serve.skyline_ms", "ms")
	med("serve.batch_ms", "ms")
	ratio("serve.resp_bytes_per_row", "B/row", s["resp_bytes"], s["resp_rows"])
	med("serve.stream_first_ms", "ms")
	med("tss.skyline_with_ms", "ms")
	med("tss.apply_batch_ms", "ms")
	med("plan.new_ms", "ms")
	med("plan.run_ms", "ms")
	med("plan.regret", "ratio")
	ratio("plan.memo_hit_ratio", "ratio", s["memo_hits"], s["memo_hits"]+s["memo_misses"])
	ratio("plan.ranked_index_ratio", "ratio", s["ranked_index"], s["ranked_all"])
	med("plan.memo_advance_ms", "ms")
	ratio("plan.maint_fallback_ratio", "ratio", s["fallbacks"], s["advances"]+s["fallbacks"])
	for _, a := range []string{"stss", "sfs", "bnl", "bbsplus"} {
		med("core.algo_ms."+a, "ms")
	}
	ratio("core.dom_checks_per_row", "count", s["dom_checks"], s["dom_rows"])
	ratio("core.block_skip_ratio", "ratio", s["blocks_skipped"], s["blocks"])
	med("core.cursor_first_ms", "ms")
	med("core.cursor_drain_ms", "ms")
	med("core.maintain_ms", "ms")
	med("core.dynamic_apply_ms", "ms")
	med("rtree.nodes_opened_per_query", "count")
	med("store.append_ms", "ms")
	var walBytes, checkpoints float64
	if rp.store != nil {
		walBytes, checkpoints = float64(rp.store.walBytes), float64(rp.store.checkpoints)
	}
	ratio("store.wal_bytes_per_user_byte", "ratio", walBytes, s["user_bytes"])
	med("store.checkpoint_ms", "ms")
	out["store.checkpoints"] = metric{Value: checkpoints, Unit: "count"}
	fmt.Printf("%-30s %14.4f %-6s\n", "store.checkpoints", checkpoints, "count")
	med("store.load_ms", "ms")
	ratio("store.disk_bytes_per_user_byte", "ratio", s["disk_bytes"], s["table_user_bytes"])
	med("cluster.stats_ms", "ms")
	med("cluster.leg_ttfb_ms", "ms")
	med("cluster.leg_ms", "ms")
	med("cluster.merge_ms", "ms")
	med("cluster.partials_ms", "ms")
	ratio("cluster.rows_fetched_per_row", "ratio", s["leg_rows"], s["coord_rows"])
	ratio("cluster.pruned_ratio", "ratio", s["pruned"], s["shards"])
	med("loadgen.late_p99_ms", "ms")
	med("loadgen.offered_qps", "1/s")
	med("loadgen.achieved_qps", "1/s")

	// Tracing overhead: the traced round trips of reads against the
	// untraced copies of the same requests.
	var traced []float64
	for i := range rp.tr.spans {
		if rp.tr.spans[i].Name == "http.read" {
			traced = append(traced, rp.tr.spans[i].ms())
		}
	}
	over := median(traced) - median(rp.samples["trace.untraced"])
	out["trace.overhead_ms"] = metric{Value: over, Unit: "ms"}
	fmt.Printf("%-30s %14.4f %-6s (median traced %.3f ms n=%d, untraced %.3f ms n=%d)\n", "trace.overhead_ms", over, "ms",
		median(traced), len(traced), median(rp.samples["trace.untraced"]), len(rp.samples["trace.untraced"]))

	// Self times: each layer's share of the traced time. The shares
	// must add up to the traced end-to-end time (the op roots plus the
	// store.load spans outside any op).
	self := selfTimes(rp.tr.spans)
	byLayer := map[string]float64{}
	var selfSum, rootSum float64
	for i := range rp.tr.spans {
		sp := &rp.tr.spans[i]
		ms := float64(self[i]) / 1e6
		byLayer[sp.layer()] += ms
		selfSum += ms
		if sp.Parent < 0 {
			rootSum += sp.ms()
		}
	}
	gap := 0.0
	if rootSum > 0 {
		gap = (selfSum - rootSum) / rootSum
	}
	out["trace.self_time_gap_ratio"] = metric{Value: gap, Unit: "ratio"}
	fmt.Printf("%-30s %14.6f %-6s (self-time sum %.1f ms, traced end-to-end %.1f ms; tolerance %.2f)\n",
		"trace.self_time_gap_ratio", gap, "ratio", selfSum, rootSum, selfGapTolerance)
	for _, l := range layers {
		share := 0.0
		if selfSum > 0 {
			share = byLayer[l] / selfSum
		}
		out["self_share."+l] = metric{Value: share, Unit: "ratio"}
		fmt.Printf("%-30s %14.4f %-6s (%.1f ms)\n", "self_share."+l, share, "ratio", byLayer[l])
	}
	return out
}

// layers are the span-name prefixes the trace attributes self time to.
var layers = []string{"http", "serve", "tss", "plan", "core", "store", "cluster", "loadgen"}

// selfGapTolerance bounds |self-time sum − traced time| / traced time.
const selfGapTolerance = 0.01
