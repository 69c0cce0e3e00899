// Command perfbench is the repository's end-to-end benchmark. It boots
// real tssserve processes, drives them over loopback from one generator
// process with at most two connections, checks every answer against a
// brute-force oracle on a mirror of each table, and prints the metrics
// BENCHMARK.json names. With -trace 1 it instead replays the same seeded
// operation sequence one op at a time, timing the calls into each layer
// (http, serve, tss, plan, core, rtree, store, cluster) from this
// package, and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload cold-scan --seed 1 --seconds 45 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists; both are closed
// loops with one client):
//
//	cold-scan    one ephemeral node, four 2k-row tables, cycling reads
//	             that bypass the skyline memo, plus batches
//	cluster-mix  coordinator + 2 hash shards, 10k rows, a mix of streamed
//	             top-k, planner reads, dp-idp top-k and batches
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// print each metric with its unit and sample count. A wrong answer makes
// the command exit 1 after printing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/serve"
)

// conns is the generator's connection budget: the host's 2 CPUs.
const conns = 2

// maxLateMs is the generator lateness (due → handed to a connection,
// 99th percentile) above which an open-loop segment is invalid.
const maxLateMs = 50

// setups is how many times set-up is repeated per run; setup_s is the
// median.
const setups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "cold-scan | cluster-mix")
	seed := flag.Int64("seed", 1, "workload seed: data, query pools, op sequence and arrival times")
	seconds := flag.Float64("seconds", 45, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	scale := flag.Float64("scale", 1, "table-size multiplier (the smoke test shrinks tables)")
	serverBin := flag.String("server", "", "tssserve binary (run.sh builds it)")
	work := flag.String("work", "", "scratch directory for logs and data dirs (run.sh sets it)")
	flag.Parse()
	if *serverBin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -server and -work are required (use perfbench/run.sh)")
		return 2
	}
	w, err := genWorkload(*workloadName, *seed, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir := filepath.Join(*work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	env := &env{bin: *serverBin, dir: dir, fl: &fleet{}, hc: newHTTPClient(conns)}
	defer env.fl.stopAll()
	// On SIGINT/SIGTERM stop every server this run started, then exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		env.fl.stopAll()
		os.RemoveAll(dir)
		os.Exit(130)
	}()
	ctx := context.Background()

	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, env, w, *seconds)
	} else {
		rep, err = runMeasured(ctx, env, w, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, _ := json.Marshal(rep)
	fmt.Println(string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// env is what a run needs to start servers.
type env struct {
	bin string
	dir string
	fl  *fleet
	hc  *http.Client
}

func (e *env) logPath(name string) string { return filepath.Join(e.dir, name+".log") }

// deployment is a booted workload: the URL clients talk to, the
// processes behind it and what set-up cost.
type deployment struct {
	url     string
	procs   []*server
	shards  []string // cluster shard URLs
	setupS  []float64
	version map[string]int64 // table versions after set-up
	rowsNow map[string]int
	mirrors map[string]*mirror
}

// deploy boots the workload's servers `setups` times, timing each boot
// from process spawn to every table created and served, and keeps the
// last one.
func deploy(e *env, w *workload) (*deployment, error) {
	d := &deployment{version: map[string]int64{}, rowsNow: map[string]int{}, mirrors: map[string]*mirror{}}
	for _, t := range w.tables {
		m, err := newMirror(t.spec)
		if err != nil {
			return nil, err
		}
		d.mirrors[t.spec.Name] = m
	}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var procs []*server
		var url string
		var shards []string
		if w.cluster {
			for sh := 0; sh < 2; sh++ {
				s, err := e.fl.start(e.bin, e.logPath(fmt.Sprintf("shard%d-%d", sh, i)), "-shard-of", fmt.Sprintf("%d/2", sh))
				if err != nil {
					return nil, err
				}
				procs = append(procs, s)
				shards = append(shards, s.url)
			}
			s, err := e.fl.start(e.bin, e.logPath(fmt.Sprintf("coord-%d", i)), "-coordinator", shards[0]+","+shards[1])
			if err != nil {
				return nil, err
			}
			procs = append(procs, s)
			url = s.url
		} else {
			s, err := e.fl.start(e.bin, e.logPath(fmt.Sprintf("node%d", i)))
			if err != nil {
				return nil, err
			}
			procs, url = []*server{s}, s.url
		}
		if err := createTables(e.hc, url, w); err != nil {
			return nil, err
		}
		d.setupS = append(d.setupS, time.Since(t0).Seconds())
		d.url, d.procs, d.shards = url, procs, shards
		if i < setups-1 {
			e.fl.stopAll()
		}
	}
	for _, t := range w.tables {
		var info serve.TableInfo
		if err := getJSON(e.hc, d.url+"/tables/"+t.spec.Name, &info); err != nil {
			return nil, err
		}
		d.version[t.spec.Name] = info.Version // a coordinator reports the vector sum
		d.rowsNow[t.spec.Name] = info.Rows
	}
	return d, nil
}

func createTables(hc *http.Client, url string, w *workload) error {
	for _, t := range w.tables {
		if err := postJSON(hc, url+"/tables", t.spec, nil); err != nil {
			return fmt.Errorf("create table %s: %w", t.spec.Name, err)
		}
	}
	return nil
}

// runMeasured is the untraced end-to-end run.
func runMeasured(ctx context.Context, e *env, w *workload, seconds float64) (*report, error) {
	d, err := deploy(e, w)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s set up (%.2fs median); running %d ops\n", w.name, median(d.setupS), len(w.ops))
	r := newRunner(e.hc, d.url, d.rowsNow)
	start, end, err := r.closedLoop(ctx, w.ops, w.cycle, seconds)
	if err != nil {
		return nil, err
	}
	var mem float64
	for _, p := range d.procs {
		mem += p.peakRSSMB()
	}
	e.fl.stopAll()

	fmt.Fprintf(os.Stderr, "perfbench: %d results; checking answers\n", len(r.results))
	t0 := time.Now()
	wrong, msgs := checkAll(w, d.mirrors, d.version, r.applied, r.results, conns)
	fmt.Fprintf(os.Stderr, "perfbench: checked in %.1fs\n", time.Since(t0).Seconds())
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "wrong answer:", m)
	}
	for _, res := range r.results {
		if res.err != nil {
			fmt.Fprintln(os.Stderr, "failed:", res.op.kind, res.op.shape, res.err)
			break
		}
	}
	printShapes(r.results)
	m := endToEnd(w, r.results, d.setupS, mem, start, end, wrong)
	return &report{Correct: wrong == 0, Attempted: len(r.results), Failed: r.failures + wrong, Metrics: m}, nil
}

// endToEnd computes the end-to-end metrics and prints each with its
// unit and sample count.
func endToEnd(w *workload, results []*result, setupS []float64, memMB float64, start, end time.Time, wrong int) map[string]metric {
	var reads, writes, ttfr, full []float64
	completed := 0
	for _, r := range results {
		if r.err != nil {
			continue
		}
		completed++
		ms := float64(r.latency()) / 1e6
		switch r.op.kind {
		case kindWrite:
			writes = append(writes, ms)
		case kindStream:
			ttfr = append(ttfr, float64(r.ttfr())/1e6)
		default:
			reads = append(reads, ms)
		}
		if r.op.full {
			full = append(full, ms)
		}
	}
	elapsed := end.Sub(start).Seconds()
	out := map[string]metric{}
	put := func(name, unit string, v float64, n int, note string) {
		out[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-26s %14.4f %-6s n=%d %s\n", name, v, unit, n, note)
	}
	fmt.Printf("workload %s: %d ops attempted, %d failed, %d wrong answers\n", w.name, len(results), len(results)-completed, wrong)
	put("setup_s", "s", median(setupS), len(setupS), "median of set-ups")
	v, p := tail(reads, 0.99)
	put("read_p99_ms", "ms", v, len(reads), fmt.Sprintf("(p%.1f: the highest with ≥10 samples beyond)", p*100))
	put("write_p50_ms", "ms", median(writes), len(writes), "")
	put("full_p50_ms", "ms", median(full), len(full), "")
	put("ops_per_s", "1/s", float64(completed)/elapsed, completed, fmt.Sprintf("over %.2fs", elapsed))
	put("mem_peak_mb", "MiB", memMB, 1, "peak RSS summed over server processes")
	// Measured and printed, but not in the result line: they do not
	// repeat within the bound from seed to seed (see perfbench/BASELINE.json).
	extra := func(name, unit string, v float64, n int, note string) {
		fmt.Printf("%-26s %14.4f %-6s n=%d %s (not in the result line)\n", name, v, unit, n, note)
	}
	extra("read_p50_ms", "ms", median(reads), len(reads), "")
	extra("ttfr_p50_ms", "ms", median(ttfr), len(ttfr), "")
	extra("full_p90_ms", "ms", quantile(full, 0.9), len(full), "")
	v, p = tail(writes, 0.99)
	extra("write_p99_ms", "ms", v, len(writes), fmt.Sprintf("(p%.1f)", p*100))
	errRate := float64(len(results)-completed+wrong) / float64(max(1, len(results)))
	extra("error_rate", "ratio", errRate, len(results), "(must read 0)")
	return out
}

// printShapes prints each op shape's count and median service time
// (connection start → response end; for streams also time to first row)
// to standard error.
func printShapes(results []*result) {
	by := map[string][]float64{}
	for _, r := range results {
		if r.err == nil {
			k := r.op.kind + " " + r.op.table + " " + r.op.shape
			by[k] = append(by[k], float64(r.end.Sub(r.sent))/1e6)
			if r.op.kind == kindStream {
				by[k+" ttfr"] = append(by[k+" ttfr"], float64(r.ttfr())/1e6)
			}
		}
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s n=%-4d service p50 %9.2f ms  max %9.2f ms\n", k, len(by[k]), median(by[k]), quantile(by[k], 1))
	}
}
