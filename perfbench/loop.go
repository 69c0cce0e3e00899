package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// runner issues a workload's ops against one server URL (a node or a
// coordinator) and keeps every result.
type runner struct {
	hc   *http.Client
	base string

	mu       sync.Mutex
	cond     *sync.Cond
	nextSeq  map[string]int // per table: sequence number of the next write allowed to go
	rowsNow  map[string]int // per table: rows after the last acknowledged write
	applied  map[string][]*result
	results  []*result
	failures int
}

// newRunner prepares to issue ops against base, given each table's
// current row count.
func newRunner(hc *http.Client, base string, rows map[string]int) *runner {
	r := &runner{hc: hc, base: base, nextSeq: map[string]int{}, rowsNow: rows, applied: map[string][]*result{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// exec sends one op. Writes to a table go strictly in sequence order, so
// a batch's row indexes always refer to the version the previous batch
// produced.
func (r *runner) exec(ctx context.Context, o *op, res *result) {
	res.op = o
	res.sent = time.Now()
	if o.kind != kindWrite {
		var body []byte
		if o.body != nil {
			body = mustJSON(o.body)
		}
		do(ctx, r.hc, r.base, o.method, o.path, body, nil, res)
		return
	}
	b := o.batch
	r.mu.Lock()
	for r.nextSeq[o.table] != b.seq {
		r.cond.Wait()
	}
	n := r.rowsNow[o.table]
	r.mu.Unlock()
	req := &serve.BatchRequest{Add: b.adds}
	if !b.sharded {
		req.Remove = b.removeIdx(n)
	}
	res.batch = req
	do(ctx, r.hc, r.base, o.method, o.path, mustJSON(req), nil, res)
	r.mu.Lock()
	if res.err == nil {
		r.rowsNow[o.table] = res.rows
		r.applied[o.table] = append(r.applied[o.table], res)
	}
	// A failed write still releases its successors; their removals are
	// drawn against the last acknowledged row count, so they stay valid.
	r.nextSeq[o.table]++
	r.cond.Broadcast()
	r.mu.Unlock()
}

// record appends a finished result.
func (r *runner) record(res *result) {
	r.mu.Lock()
	r.results = append(r.results, res)
	if res.err != nil {
		r.failures++
	}
	r.mu.Unlock()
}

// openLoop issues ops at their due times over two connections (the
// host's CPU count). Connection 0 sends the batches, in order, and reads
// while no batch waits; connection 1 sends reads only. A batch holds its
// connection for up to seconds of skyline-memo maintenance, so reads are
// never queued behind more than the batch in flight. A request's latency
// counts from its due time, so time spent waiting for a free connection
// is part of it. The generator's own lateness (due → handed to the
// connections' queues) is kept separately in queued.
func (r *runner) openLoop(ctx context.Context, ops []*op, drain time.Duration) (start time.Time, end time.Time) {
	// Each queue can hold every op, so the scheduler never blocks.
	reads, writes := make(chan *result, len(ops)), make(chan *result, len(ops))
	var wg sync.WaitGroup
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	send := func(res *result) {
		r.exec(rctx, res.op, res)
		r.record(res)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		rq, wq := reads, writes
		for rq != nil || wq != nil {
			select { // a waiting batch goes first
			case res, ok := <-wq:
				if !ok {
					wq = nil
					continue
				}
				send(res)
				continue
			default:
			}
			select {
			case res, ok := <-wq:
				if !ok {
					wq = nil
					continue
				}
				send(res)
			case res, ok := <-rq:
				if !ok {
					rq = nil
					continue
				}
				send(res)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for res := range reads {
			send(res)
		}
	}()
	start = time.Now()
	for _, o := range ops {
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		q := reads
		if o.kind == kindWrite {
			q = writes
		}
		q <- &result{op: o, due: due, queued: time.Now()}
	}
	close(reads)
	close(writes)
	end = time.Now()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drain):
		cancel() // outstanding requests fail; the connections then drain
		<-done
	}
	return start, end
}

// minCycles is the fewest whole cycles a closed-loop run completes.
// cold-scan's eight slow default-route reads per cycle then outnumber the
// 10 samples the read tail percentile keeps beyond it, so read_p99_ms
// sits inside the slow reads and never flips to the fast ones.
const minCycles = 2

// closedLoop issues ops one at a time from one client, in order, and
// stops at the first cycle boundary past the deadline, after at least
// minCycles cycles.
func (r *runner) closedLoop(ctx context.Context, ops []*op, cycle int, seconds float64) (start, end time.Time, err error) {
	start = time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i%cycle != 0 || i < minCycles*cycle || time.Now().Before(deadline); i++ {
		if i == len(ops) {
			return start, time.Now(), fmt.Errorf("closed loop ran out of generated ops")
		}
		res := &result{due: time.Now()}
		res.queued = res.due
		r.exec(ctx, ops[i], res)
		r.record(res)
	}
	return start, time.Now(), nil
}
