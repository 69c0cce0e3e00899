package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/serve"
)

// Op kinds. Reads are planner queries and GET /skyline; streams are
// ?stream=1 reads; writes are batches.
const (
	kindRead   = "read"
	kindStream = "stream"
	kindWrite  = "write"
)

// op is one generated request. Everything about it derives from the
// workload seed; batch removals are drawn at send time from the op's own
// seed against the (deterministic) row count of the version it mutates,
// because writes are issued one at a time in sequence order.
type op struct {
	idx    int
	kind   string
	table  string
	method string
	path   string // request path including the query string
	body   any    // JSON body, nil for GET
	due    time.Duration
	shape  string // pool entry name: groups answers for checking and tracing
	full   bool   // a complete full-skyline answer (full_p50/p90)
	query  *serve.QueryRequest
	algo   string // forced GET /skyline algorithm ("" for the default route)
	batch  *batchOp
}

// batchOp is a generated batch: rows to append plus how many current
// rows to remove, chosen from seed when the batch is sent.
type batchOp struct {
	seq     int // 0-based position among this table's writes
	adds    []serve.RowSpec
	removes int
	seed    int64
	sharded bool // cluster table: removals are not generated
}

// removeIdx draws the batch's removals against a table of n rows.
func (b *batchOp) removeIdx(n int) []int {
	if b.removes == 0 || n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(b.seed))
	return rng.Perm(n)[:min(b.removes, n)]
}

// tableGen is one generated table: its wire spec (initial rows) and a
// pool of further rows that batches append.
type tableGen struct {
	spec  serve.TableSpec
	extra []serve.RowSpec
	next  int
}

func (t *tableGen) take(n int) []serve.RowSpec {
	out := make([]serve.RowSpec, n)
	for i := range out {
		out[i] = t.extra[t.next%len(t.extra)]
		t.next++
	}
	return out
}

// genTable builds an n-row table of 2 TO + 2 PO columns plus extra rows
// drawn from the same distribution for batches to append. The PO
// domains are the paper's static defaults (thinned h=8 lattices, density
// 0.8) built from a fixed seed: they are the schema, shared by every
// run. The rows come from seed. (With per-seed lattices the skyline
// size, and with it every latency, moved by ±20% from seed to seed.)
func genTable(name string, n, extra int, dist data.Distribution, seed int64) *tableGen {
	cfg := exp.StaticDefaults(1)
	ds := &core.Dataset{Domains: exp.BuildDomains(cfg)}
	rng := rand.New(rand.NewSource(seed))
	to := data.GenTO(rng, n+extra, cfg.TO, cfg.TODomain, dist)
	sizes := make([]int, len(ds.Domains))
	for d, dom := range ds.Domains {
		sizes[d] = dom.Size()
	}
	po := data.GenPO(rng, n+extra, sizes)
	for i := range to {
		ds.Pts = append(ds.Pts, core.Point{ID: int32(i), TO: to[i], PO: po[i]})
	}
	all := serve.SpecFromDataset(name, ds)
	spec := all
	spec.Rows = all.Rows[:n]
	return &tableGen{spec: spec, extra: all.Rows[n:]}
}

// toQuantile returns the q-quantile of TO column d over the spec's rows.
func toQuantile(spec serve.TableSpec, d int, q float64) int64 {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, r := range spec.Rows {
		lo, hi = min(lo, r.TO[d]), max(hi, r.TO[d])
	}
	return lo + int64(float64(hi-lo)*q)
}

func i64(v int64) *int64 { return &v }

// zipfShares are the Zipf(s=1.2) popularity shares of an n-entry pool,
// entry 0 the most popular. The order is fixed by the pool, not by the
// seed: the entries differ in cost by up to three orders of magnitude,
// and a seed that made an expensive entry popular would measure a
// different workload.
func zipfShares(n int) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -1.2)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func flatShares(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// deck returns n class indexes with each class's count fixed by its share
// (largest remainder) and the order shuffled by rng, so every seed runs
// the same mix in a different order.
func deck(rng *rand.Rand, n int, shares []float64) []int {
	counts := make([]int, len(shares))
	rem := make([]float64, len(shares))
	left := n
	for c, sh := range shares {
		x := sh * float64(n)
		counts[c] = int(x)
		rem[c] = x - float64(counts[c])
		left -= counts[c]
	}
	for ; left > 0; left-- {
		best := 0
		for c := range rem {
			if rem[c] > rem[best] {
				best = c
			}
		}
		counts[best]++
		rem[best] = -1
	}
	var out []int
	for c, k := range counts {
		for ; k > 0; k-- {
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// class is one op class of a mix: its share of the ops, its pool size
// (0 for none) and whether the pool is drawn evenly instead of Zipf,
// whether its ops arrive evenly spaced instead of at random times, and
// how to build an op for a pool entry.
type class struct {
	share float64
	pool  int
	flat  bool
	even  bool
	build func(entry int) *op
}

// openSchedule generates windows of `window` seconds, each holding
// exactly rate×window ops whose class counts and per-class pool-entry
// counts are fixed by their shares, in seeded order, at arrival times
// drawn uniformly over the window — a Poisson process conditioned on its
// count, so the offered load and the mix are the same for every seed.
func openSchedule(rng *rand.Rand, rate, window float64, windows int, classes []class) []*op {
	shares := make([]float64, len(classes))
	for c := range classes {
		shares[c] = classes[c].share
	}
	var ops []*op
	for wi := 0; wi < windows; wi++ {
		n := int(math.Round(rate * window))
		kinds := deck(rng, n, shares)
		entries := make([][]int, len(classes))
		for c, cl := range classes {
			k := 0
			for _, x := range kinds {
				if x == c {
					k++
				}
			}
			switch {
			case cl.flat:
				entries[c] = deck(rng, k, flatShares(cl.pool))
			case cl.pool > 0:
				entries[c] = deck(rng, k, zipfShares(cl.pool))
			default:
				entries[c] = make([]int, k)
			}
		}
		var wops []*op
		for c, cl := range classes {
			for k, e := range entries[c] {
				o := cl.build(e)
				at := rng.Float64()
				if cl.even {
					at = (float64(k) + 0.5) / float64(len(entries[c]))
				}
				o.due = time.Duration((float64(wi) + at) * window * float64(time.Second))
				wops = append(wops, o)
			}
		}
		sort.SliceStable(wops, func(a, b int) bool { return wops[a].due < wops[b].due })
		ops = append(ops, wops...)
	}
	return ops
}

// workload is a fully generated benchmark input.
type workload struct {
	name   string
	tables []*tableGen
	ops    []*op
	// openRate is the Poisson rate (ops/s) the ops' due times follow, used
	// by the traced run's open-loop segment; 0 for none. The measured run
	// is always a closed loop.
	openRate float64
	// cycle is the closed loop's cycle length in ops.
	cycle   int
	cluster bool
}

func postQuery(table string, req serve.QueryRequest, stream bool) (method, path string, body any) {
	path = "/tables/" + table + "/query"
	if stream {
		path += "?stream=1"
	}
	r := req
	return "POST", path, &r
}

// batchFor generates a write: adds rows from the table's pool and
// removes as many current rows, keeping the table size steady.
func batchFor(t *tableGen, seq int, rng *rand.Rand, lo, hi int, sharded bool) *op {
	n := lo + rng.Intn(hi-lo+1)
	b := &batchOp{seq: seq, adds: t.take(n), seed: rng.Int63(), sharded: sharded}
	if !sharded {
		b.removes = n
	}
	return &op{kind: kindWrite, table: t.spec.Name, method: "POST",
		path: "/tables/" + t.spec.Name + "/rows:batch", shape: "batch", batch: b}
}

// cluster-mix comes in decks of mixDeck ops that each hold the mix
// exactly, with arrival times of an open loop at mixRate ops/s (about a
// third of what the coordinator and its shards serve on 2 CPUs).
const (
	mixDeck = 20
	mixRate = 4
)

// genColdScan: one ephemeral node, four 2k-row tables (two Independent,
// two Anti-correlated); one closed-loop client cycles a fixed sequence of
// reads none of which can be served from the skyline memo, plus small
// batches. Each table's cycle reads the default route twice (as the
// default and as ?algo=stss): with four slow reads per cycle the read
// tail percentile sits inside them. (2k rather than 5k rows: the default
// route's cost lets a run complete the minCycles cycles in about 25 s.)
func genColdScan(seed int64, rows int) *workload {
	rng := rand.New(rand.NewSource(seed))
	// Two tables of each distribution, so a run's figures average over
	// two datasets per distribution rather than hinge on one.
	w := &workload{name: "cold-scan"}
	for i := 0; i < 2; i++ {
		w.tables = append(w.tables,
			genTable("ind"+strconv.Itoa(i), rows, 2000, data.Independent, rng.Int63()),
			genTable("anti"+strconv.Itoa(i), rows, 2000, data.AntiCorrelated, rng.Int63()))
	}
	writes := map[string]int{}
	// The client runs whole cycles until the deadline has passed, so
	// every run sees the same mix; 200 cycles outlast any run length.
	w.cycle = 0
	for cycle := 0; cycle < 200; cycle++ {
		for _, t := range w.tables {
			name := t.spec.Name
			mid := toQuantile(t.spec, 1, 0.5)
			sky := func(algo string, stream bool) *op {
				p := "/tables/" + name + "/skyline"
				switch {
				case stream:
					p += "?stream=1"
				case algo != "":
					p += "?algo=" + algo
				}
				k := kindRead
				if stream {
					k = kindStream
				}
				label := "skyline"
				if algo != "" {
					label += "-" + algo
				}
				if stream {
					label += "-stream"
				}
				return &op{kind: k, method: "GET", path: p, shape: label, full: true, algo: algo}
			}
			plan := func(label string, req serve.QueryRequest, full bool) *op {
				req.NoCache = true
				o := &op{kind: kindRead, shape: label, full: full, query: &req}
				o.method, o.path, o.body = postQuery(name, req, false)
				return o
			}
			batch := func() *op {
				o := batchFor(t, writes[name], rng, 1, 3, false)
				writes[name]++
				return o
			}
			// Four small batches per table per cycle give the write
			// metrics enough samples; on this ephemeral, memo-less node
			// they cost a few milliseconds each.
			seq := []*op{
				sky("", false),
				batch(),
				sky("stss", false),
				sky("", true),
				plan("nocache-full", serve.QueryRequest{}, true),
				batch(),
				plan("nocache-sub", serve.QueryRequest{Subspace: []string{"to_0", "po_0", "po_1"}}, false),
				plan("nocache-where", serve.QueryRequest{Where: []serve.WhereSpec{{Col: "to_1", Le: i64(mid)}}}, false),
				batch(),
				sky("sfs", false),
				sky("bnl", false),
				sky("bbs+", false),
				batch(),
			}
			// Independent tables stream twice per cycle: their first rows
			// come sooner than the Anti-correlated tables', and with equal
			// counts ttfr_p50_ms would sit between the two.
			if strings.HasPrefix(name, "ind") {
				seq = append(seq, sky("", true))
			}
			for _, o := range seq {
				o.table = name
				w.ops = append(w.ops, o)
			}
		}
		if cycle == 0 {
			w.cycle = len(w.ops)
		}
	}
	return w
}

// genClusterMix: a coordinator over 2 hash-partitioned shards holding a
// 10k-row Independent table; a seeded mix of 25% streamed unranked top-k,
// 20% full and 25% subspace planner reads, 20% ranked dp-idp top-k and
// 10% single-row batches routed by the coordinator. (Single
// rows, so each batch moves exactly one shard's version and every
// answer's version vector names one table state the checker can
// rebuild without knowing the coordinator's hash placement.)
func genClusterMix(seed int64, rows int) *workload {
	rng := rand.New(rand.NewSource(seed))
	t := genTable("c", rows, 5000, data.Independent, rng.Int63())
	w := &workload{name: "cluster-mix", tables: []*tableGen{t}, cluster: true, cycle: mixDeck, openRate: mixRate}
	subs := [][]string{{"to_0", "po_0"}, {"to_1", "po_1"}, {"to_0", "to_1", "po_1"}}
	writes := 0
	name := t.spec.Name
	query := func(kind, shape string, req serve.QueryRequest, full, stream bool) *op {
		o := &op{kind: kind, shape: shape, full: full, query: &req}
		o.method, o.path, o.body = postQuery(name, req, stream)
		return o
	}
	// Streamed top-k, evenly over the full space and each subspace. When
	// the coordinator can certify the first row of a full-space stream
	// depends on where the data puts the shards' leading rows — 5 ms for
	// most seeds, the whole 100 ms response for some — so with full-space
	// streams alone ttfr_p50_ms would be a property of the seed.
	streams := append([][]string{nil}, subs...)
	w.ops = openSchedule(rng, mixRate, mixDeck/mixRate, 200, []class{
		{0.25, len(streams), true, false, func(e int) *op {
			return query(kindStream, "topk"+strconv.Itoa(e), serve.QueryRequest{TopK: 10, Subspace: streams[e]}, false, true)
		}},
		{0.20, 0, false, false, func(int) *op { return query(kindRead, "full", serve.QueryRequest{Explain: true}, true, false) }},
		{0.25, len(subs), false, false, func(e int) *op {
			return query(kindRead, "sub"+strconv.Itoa(e), serve.QueryRequest{Subspace: subs[e]}, false, false)
		}},
		{0.20, 0, false, false, func(int) *op {
			return query(kindRead, "topk-dpidp", serve.QueryRequest{TopK: 10, Rank: "dpidp"}, false, false)
		}},
		{0.10, 0, false, true, func(int) *op {
			o := batchFor(t, writes, rng, 1, 1, true)
			writes++
			return o
		}},
	})
	for _, o := range w.ops {
		o.table = name
	}
	return w
}

// genWorkload generates a workload.
func genWorkload(name string, seed int64, scale float64) (*workload, error) {
	n := func(base int) int { return max(200, int(float64(base)*scale)) }
	var w *workload
	switch name {
	case "cold-scan":
		w = genColdScan(seed, n(2000))
	case "cluster-mix":
		w = genClusterMix(seed, n(10000))
	default:
		return nil, fmt.Errorf("unknown workload %q (have cold-scan, cluster-mix)", name)
	}
	for i, o := range w.ops {
		o.idx = i
	}
	return w, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
