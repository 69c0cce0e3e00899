package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/poset"
	"repro/internal/serve"
)

// Streamed scatter/gather: instead of the gather-then-merge barrier
// (wait for every shard, then eliminate), the coordinator consumes the
// shard legs as streams and certifies rows incrementally. A gathered
// row r is *globally certified* — provably in the merged skyline — as
// soon as
//
//  1. no gathered candidate t-dominates it, and
//  2. no still-streaming shard (other than r's own; a shard's stream is
//     its local skyline, so same-shard rows never dominate each other)
//     could still hold a dominator. Shard s is ruled out two ways:
//     statically, while its statistics min corner is componentwise > r
//     on some kept TO dimension (every row of s is coordinate-wise ≥
//     that corner, so such a corner rules out every dominator s could
//     produce, regardless of PO values); or dynamically, once s's
//     last-seen emission key reaches r's key — cursor legs stream in
//     non-decreasing L1 mindist key order and a strict t-dominator
//     always has a strictly smaller key than the row it dominates, so
//     everything s can still send has key ≥ key(r) > key(any dominator
//     of r). The dynamic bound is what makes hash partitioning
//     progressive: every shard's min corner sits near the origin and
//     never clears statically, but interleaved key-ordered legs clear
//     each other continuously. Replayed legs carry no keys and fall
//     back to the static bound.
//
// Certified rows are emitted immediately and never revoked: a later
// arrival from shard s cannot dominate r, because at certification time
// s was either complete (all its rows already compared) or not a threat
// (every row it can still send is strictly worse somewhere). Under
// range partitioning the best shard's rows certify while slower shards
// are still computing — first-K latency is bounded by the fastest
// relevant shard, not the slowest leg. Unranked top-k stops the scatter
// outright once K rows certify (each certified row already beats every
// remaining shard bound), cancelling the remaining legs mid-traversal
// instead of over-fetching every shard's full local skyline.

// streamLimit parses the ?limit query parameter of a streamed route.
func streamLimit(r *http.Request) (int, error) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad limit=%q: %w", v, err)
	}
	return n, nil
}

// HandleQueryStream answers POST /tables/{t}/query?stream=1 at the
// coordinator. Unranked planner-mode queries and plain dynamic queries
// take the incremental merge; ranked top-k (global re-rank needs every
// candidate), ideal-point transforms (statistics corners are
// meaningless on transformed coordinates) and baseline runs compute
// buffered and replay their rows, so every request shape shares the
// stream framing.
func (co *Coordinator) HandleQueryStream(w http.ResponseWriter, r *http.Request, ct *ctable, req serve.QueryRequest) {
	co.queries.Add(1)
	limit, err := streamLimit(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if limit == 0 {
		limit = req.Limit
	}
	planMode, err := req.PlanMode()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if planMode {
		co.streamPlanQuery(w, r, ct, req, limit)
		return
	}
	co.streamDynamicQuery(w, r, ct, req, limit)
}

// streamPlanQuery streams a planner-mode scatter: plan once, fan the
// per-shard streamed request out, merge incrementally. Only request
// validation happens before the stream opens (client errors deserve an
// HTTP status); the statistics fetch and the plan run inside the
// producer, so heartbeats flow while they are in flight instead of the
// client staring at a silent pre-stream pause.
func (co *Coordinator) streamPlanQuery(w http.ResponseWriter, r *http.Request, ct *ctable, req serve.QueryRequest, limit int) {
	q, err := ct.schema.PlanQuery(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if q.Rank != plan.RankNone || len(q.FWeights) > 0 {
		// Ranked top-k: scores are global, so the re-rank needs every
		// merged candidate. Weight-restricted skylines: the incremental
		// merge certifies by t-dominance only, and the cross-shard
		// F-dominance elimination needs the full union. Both compute
		// buffered and replay.
		co.streamBuffered(w, r, ct, limit, func(ctx context.Context) (*serve.QueryResponse, error) {
			return co.planQuery(ctx, ct, req)
		})
		return
	}

	sreq := req
	sreq.TopK, sreq.Rank, sreq.Ideal = 0, "", nil
	sreq.Limit, sreq.Explain = 0, false
	if sreq.Algo == "" {
		// Pin sTSS rather than the buffered cost-based choice: the
		// streamed path optimizes time-to-first-row, and only the
		// progressive cursor emits shard rows before the local run
		// finishes (a first-K cancellation then stops the shard's
		// traversal mid-flight instead of after a full materialization).
		sreq.Algo = "stss"
	}

	keptTO, keptPO := identityDims(ct.schema.NumTO()), identityDims(ct.schema.NumPO())
	if q.Subspace != nil {
		keptTO, keptPO = q.Subspace.TO, q.Subspace.PO
	}
	doms := make([]*poset.Domain, len(keptPO))
	for j, d := range keptPO {
		doms[j] = ct.domains[d]
	}
	g := &gather{ct: ct, keptTO: keptTO, keptPO: keptPO, doms: doms}
	sm := &streamMerge{
		co: co, g: g, topK: req.TopK, limit: limit, algo: sreq.Algo,
		open: func(ctx context.Context, i int) (io.ReadCloser, error) {
			return co.openShardStream(ctx, i, http.MethodPost, co.shards[i].tablePath(ct.name, "/query?stream=1"), g.pin(i), sreq)
		},
	}
	sm.prepare = func(ctx context.Context) error {
		stats, err := co.ShardStats(ctx, ct)
		if err != nil {
			return err
		}
		g.stats = stats
		explain, err := co.planOnce(ct, q, stats)
		if err != nil {
			return err
		}
		explain.Algorithm = sreq.Algo
		if req.Explain {
			sm.explain = explain
		}
		return nil
	}
	sm.run(w, r, ct)
}

// streamDynamicQuery streams a dTSS-mode scatter. Plain dynamic queries
// (request preference DAGs, no ideal transform) merge incrementally
// under the request's domains; the statistics corners stay valid
// because the coordinates are untransformed.
func (co *Coordinator) streamDynamicQuery(w http.ResponseWriter, r *http.Request, ct *ctable, req serve.QueryRequest, limit int) {
	if req.Baseline && req.Ideal != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("baseline does not support ideal-point queries"))
		return
	}
	doms, err := ct.schema.QueryDomains(req.Orders)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Ideal != nil && len(req.Ideal) != ct.schema.NumTO() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ideal point has %d values, table has %d TO columns",
			len(req.Ideal), ct.schema.NumTO()))
		return
	}
	bufferedCompute := func(ctx context.Context) (*serve.QueryResponse, error) {
		return co.dynamicQuery(ctx, ct, req)
	}
	if req.Baseline || req.Ideal != nil {
		co.streamBuffered(w, r, ct, limit, bufferedCompute)
		return
	}
	sreq := req
	sreq.Limit = 0
	g := &gather{
		ct:     ct,
		keptTO: identityDims(ct.schema.NumTO()),
		keptPO: identityDims(ct.schema.NumPO()),
		doms:   doms,
	}
	sm := &streamMerge{
		co: co, g: g, limit: limit,
		open: func(ctx context.Context, i int) (io.ReadCloser, error) {
			return co.openShardStream(ctx, i, http.MethodPost, co.shards[i].tablePath(ct.name, "/query?stream=1"), g.pin(i), sreq)
		},
	}
	// The statistics fetch runs inside the producer (heartbeats flow
	// while it is in flight). Without statistics there are no shard
	// corner bounds, hence no sound incremental certification — fall
	// back to buffered replay within the already-open stream.
	sm.prepare = func(ctx context.Context) error {
		if stats, err := co.ShardStats(ctx, ct); err == nil {
			g.stats = stats
		} else {
			sm.fallback = bufferedCompute
		}
		return nil
	}
	sm.run(w, r, ct)
}

// HandleSkylineStream answers GET /tables/{t}/skyline?stream=1: the
// static skyline as an incrementally merged stream, ?algo/?parallel
// passed through to the shard legs.
func (co *Coordinator) HandleSkylineStream(w http.ResponseWriter, r *http.Request, ct *ctable) {
	co.queries.Add(1)
	limit, err := streamLimit(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scatterParams := url.Values{"stream": []string{"1"}}
	for _, k := range []string{"algo", "parallel"} {
		if v := r.URL.Query().Get(k); v != "" {
			scatterParams.Set(k, v)
		}
	}
	path := "/skyline?" + scatterParams.Encode()
	g := &gather{
		ct:     ct,
		keptTO: identityDims(ct.schema.NumTO()),
		keptPO: identityDims(ct.schema.NumPO()),
		doms:   ct.domains,
	}
	sm := &streamMerge{
		co: co, g: g, limit: limit, algo: r.URL.Query().Get("algo"),
		open: func(ctx context.Context, i int) (io.ReadCloser, error) {
			return co.openShardStream(ctx, i, http.MethodGet, co.shards[i].tablePath(ct.name, path), g.pin(i), nil)
		},
	}
	query := r.URL.Query()
	sm.prepare = func(ctx context.Context) error {
		if stats, err := co.ShardStats(ctx, ct); err == nil {
			g.stats = stats
		} else {
			// No statistics, no corner bounds, no sound incremental
			// certification — buffered replay inside the open stream.
			sm.fallback = func(ctx context.Context) (*serve.QueryResponse, error) {
				return co.Skyline(ctx, ct, query)
			}
		}
		return nil
	}
	sm.run(w, r, ct)
}

// streamBuffered renders a buffered coordinator answer through the
// stream framing: header, every (limit-truncated) row, trailer. The
// compute runs inside the producer, so heartbeats cover it.
func (co *Coordinator) streamBuffered(w http.ResponseWriter, r *http.Request, ct *ctable, limit int,
	compute func(ctx context.Context) (*serve.QueryResponse, error)) {
	header := serve.StreamRecord{Type: "header", Table: ct.name}
	serve.StreamResponse(w, r, co.streamHeartbeat, header, bufferedProduce(limit, compute))
}

// bufferedProduce is the stream producer replaying one buffered
// coordinator answer: compute, emit rows, return the trailer.
func bufferedProduce(limit int, compute func(ctx context.Context) (*serve.QueryResponse, error)) func(context.Context, func(serve.StreamRecord) error) (serve.StreamRecord, error) {
	return func(ctx context.Context, emit func(serve.StreamRecord) error) (serve.StreamRecord, error) {
		start := time.Now()
		resp, err := compute(ctx)
		if err != nil {
			return serve.StreamRecord{}, err
		}
		for i := range resp.Skyline {
			if limit > 0 && i >= limit {
				break
			}
			row := resp.Skyline[i]
			rec := serve.StreamRecord{Type: "row", Row: &row, Emission: i, Elapsed: time.Since(start).Seconds()}
			if err := emit(rec); err != nil {
				return serve.StreamRecord{}, err
			}
		}
		return serve.StreamRecord{
			Type: "trailer", Version: resp.Version, Count: resp.Count,
			Metrics: &resp.Metrics, CacheHit: resp.CacheHit, Algo: resp.Algo,
			Plan: resp.Plan, Cluster: resp.Cluster,
		}, nil
	}
}

// shardBound is one shard's threat classification for certification.
type shardBound struct {
	corner []int64 // kept-TO statistics min corner; nil when unknown
	empty  bool    // shard holds no rows — never a threat
}

// threatens reports whether an incomplete shard with this bound could
// still stream a row dominating pt (conservative: corner componentwise
// ≤ on every kept TO dimension; PO values are unknown, so they never
// clear a shard).
func (b *shardBound) threatens(pt *core.Point) bool {
	if b.empty {
		return false
	}
	if b.corner == nil {
		return true
	}
	for j, c := range b.corner {
		if c > int64(pt.TO[j]) {
			return false
		}
	}
	return true
}

// legEvent is one decoded frame (or failure) of one shard leg.
type legEvent struct {
	shard int
	rec   serve.StreamRecord
	err   error // terminal leg failure; rec is invalid
}

// streamMerge is one incremental scatter/merge execution.
type streamMerge struct {
	co      *Coordinator
	g       *gather       // kept dims, dominance oracle, per-shard stats
	topK    int           // unranked top-k: stop after this many certified rows
	limit   int           // emission truncation; certification continues
	algo    string        // trailer algo annotation
	explain *plan.Explain // attached to the trailer when non-nil
	open    func(ctx context.Context, shard int) (io.ReadCloser, error)
	// prepare runs at the top of the producer — after the header, under
	// heartbeat cover — to fetch statistics and plan. It may set
	// fallback instead of g.stats to divert the whole request to a
	// buffered replay inside the already-open stream.
	prepare  func(ctx context.Context) error
	fallback func(ctx context.Context) (*serve.QueryResponse, error)
}

func (sm *streamMerge) run(w http.ResponseWriter, r *http.Request, ct *ctable) {
	header := serve.StreamRecord{Type: "header", Table: ct.name}
	serve.StreamResponse(w, r, sm.co.streamHeartbeat, header, sm.produce)
}

// leg opens one shard stream and forwards its frames as events. A
// decode error before the trailer (a torn mid-query stream) surfaces as
// a leg failure, never as silent truncation.
func (sm *streamMerge) leg(ctx context.Context, shard int, events chan<- legEvent) {
	body, err := sm.open(ctx, shard)
	if err != nil {
		events <- legEvent{shard: shard, err: err}
		return
	}
	defer body.Close()
	dec := json.NewDecoder(body)
	for {
		var rec serve.StreamRecord
		if err := dec.Decode(&rec); err != nil {
			events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: stream ended before trailer: %w", shard, err)}
			return
		}
		switch rec.Type {
		case "heartbeat":
			// The coordinator emits its own heartbeats toward the client.
		case "error":
			events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: %s", shard, rec.Error)}
			return
		case "row":
			if rec.Row == nil {
				events <- legEvent{shard: shard, err: fmt.Errorf("shard %d: row record without a row", shard)}
				return
			}
			events <- legEvent{shard: shard, rec: rec}
		case "trailer":
			events <- legEvent{shard: shard, rec: rec}
			return
		default: // "header" and forward-compatible record types
			events <- legEvent{shard: shard, rec: rec}
		}
	}
}

// produce runs the merge loop against the leg streams.
func (sm *streamMerge) produce(ctx context.Context, emit func(serve.StreamRecord) error) (serve.StreamRecord, error) {
	if sm.prepare != nil {
		if err := sm.prepare(ctx); err != nil {
			return serve.StreamRecord{}, err
		}
	}
	if sm.fallback != nil {
		return bufferedProduce(sm.limit, sm.fallback)(ctx, emit)
	}
	start := time.Now()
	n := len(sm.co.shards)
	legCtx, cancel := context.WithCancel(ctx)
	events := make(chan legEvent, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sm.leg(legCtx, i, events)
		}(i)
	}
	go func() {
		wg.Wait()
		close(events)
	}()
	// On every exit, cancel the remaining legs and drain their events so
	// no goroutine blocks on a send into an abandoned channel.
	defer func() {
		cancel()
		for range events { //nolint:revive // intentional drain
		}
	}()

	// Per-shard bookkeeping, pre-seeded from the statistics snapshot so
	// the trailer's version vector is complete even for legs cancelled
	// by an early top-k stop.
	bounds := make([]shardBound, n)
	versions := make([]int64, n)
	shardRows := make([]int, n)
	complete := make([]bool, n)
	for i := 0; i < n && i < len(sm.g.stats); i++ {
		st := sm.g.stats[i]
		versions[i] = st.Version
		shardRows[i] = st.Rows
		if c, ok := sm.g.corner(i); ok {
			bounds[i].corner = c
		} else if st.Stats != nil && st.Stats.Rows == 0 {
			bounds[i].empty = true
		}
	}

	type mcand struct {
		c         candidate
		key       *int64 // emission key on cursor-leg rows; nil otherwise
		certified bool
	}
	var alive []mcand
	var metrics core.MetricsExport
	trailers, cacheHits, certified, emitted := 0, 0, 0, 0

	// Per-shard streamed-key progress: cursor legs annotate each row with
	// its non-decreasing L1 mindist key, and a strict t-dominator always
	// has a strictly smaller key than the row it dominates — so once
	// shard s's last-seen key reaches a candidate's key, nothing s can
	// still send dominates that candidate, even when s's static min
	// corner never clears (hash partitioning puts every corner near the
	// origin). Replayed legs (cache hits, dTSS, forced algorithms) send
	// no keys and stay on the conservative corner bound.
	lastKey := make([]int64, n)
	haveKey := make([]bool, n)

	// certifySweep certifies and emits every pending candidate no
	// incomplete foreign shard threatens. Returns done=true once an
	// unranked top-k has its K rows.
	certifySweep := func() (bool, error) {
		for i := range alive {
			p := &alive[i]
			if p.certified {
				continue
			}
			threatened := false
			for s := 0; s < n && !threatened; s++ {
				if s == p.c.shard || complete[s] {
					continue
				}
				if p.key != nil && haveKey[s] && lastKey[s] >= *p.key {
					continue
				}
				threatened = bounds[s].threatens(&p.c.pt)
			}
			if threatened {
				continue
			}
			p.certified = true
			certified++
			if sm.limit == 0 || emitted < sm.limit {
				shard := p.c.shard
				row := p.c.row
				row.Shard = &shard
				rec := serve.StreamRecord{Type: "row", Row: &row, Emission: certified - 1, Elapsed: time.Since(start).Seconds()}
				if err := emit(rec); err != nil {
					return false, err
				}
				emitted++
			}
			if sm.topK > 0 && certified == sm.topK {
				return true, nil
			}
		}
		return false, nil
	}

	finish := func() (serve.StreamRecord, error) {
		var version int64
		rowsTot := 0
		for i := 0; i < n; i++ {
			version += versions[i]
			rowsTot += shardRows[i]
		}
		metrics.Shards = n
		trailer := serve.StreamRecord{
			Type: "trailer", Version: version, Rows: rowsTot, Count: certified,
			Metrics: &metrics, CacheHit: trailers > 0 && cacheHits == trailers,
			Algo:    sm.algo,
			Cluster: &serve.ClusterMeta{Shards: n, Versions: versions},
		}
		if sm.explain != nil {
			sm.explain.ObservedSeconds = time.Since(start).Seconds()
			sm.explain.ObservedSkyline = certified
			sm.explain.CacheHit = trailer.CacheHit
			trailer.Plan = sm.explain
		}
		return trailer, nil
	}

	for ev := range events {
		if ev.err != nil {
			return serve.StreamRecord{}, ev.err
		}
		switch ev.rec.Type {
		case "header":
			versions[ev.shard] = ev.rec.Version
			shardRows[ev.shard] = ev.rec.Rows
			continue
		case "row":
			pt, err := sm.g.point(ev.rec.Row)
			if err != nil {
				return serve.StreamRecord{}, err
			}
			// Every keyed arrival advances its shard's progress bound,
			// whether or not the row survives as a candidate.
			if ev.rec.Key != nil {
				lastKey[ev.shard] = *ev.rec.Key
				haveKey[ev.shard] = true
			}
			c := candidate{shard: ev.shard, row: *ev.rec.Row, pt: pt}
			dominated := false
			for i := range alive {
				if core.DominatesUnder(sm.g.doms, &alive[i].c.pt, &c.pt) {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			// The arrival may retire pending candidates; certified rows
			// are un-dominatable by construction and always survive.
			kept := alive[:0]
			for i := range alive {
				if !alive[i].certified && core.DominatesUnder(sm.g.doms, &c.pt, &alive[i].c.pt) {
					continue
				}
				kept = append(kept, alive[i])
			}
			alive = append(kept, mcand{c: c, key: ev.rec.Key})
		case "trailer":
			complete[ev.shard] = true
			trailers++
			if ev.rec.CacheHit {
				cacheHits++
			}
			if ev.rec.Metrics != nil {
				addMetrics(&metrics, ev.rec.Metrics)
			}
		default:
			continue // forward-compatible: ignore unknown record types
		}
		done, err := certifySweep()
		if err != nil {
			return serve.StreamRecord{}, err
		}
		if done {
			return finish()
		}
	}
	// All legs complete: every remaining pending candidate survived the
	// full gather and certifies now.
	if _, err := certifySweep(); err != nil {
		return serve.StreamRecord{}, err
	}
	return finish()
}
