package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// result is one completed (or failed) request as the generator saw it.
type result struct {
	op     *op
	due    time.Time // when the request was due (open loop) or issued (closed loop)
	queued time.Time // when the generator handed it to a connection
	sent   time.Time // when a connection started sending it
	first  time.Time // first row frame (streams)
	end    time.Time
	err    error

	version  int64
	versions []int64 // per-shard versions (cluster responses)
	count    int
	ids      []int32  // row indexes in response order (single node)
	vals     []string // row value keys in response order
	bytes    int
	pruned   int
	metrics  core.MetricsExport
	cacheHit bool
	rows     int // table rows at the serving snapshot
	batch    *serve.BatchRequest
}

func (r *result) latency() time.Duration { return r.end.Sub(r.due) }

func (r *result) ttfr() time.Duration {
	if r.first.IsZero() {
		return r.end.Sub(r.due)
	}
	return r.first.Sub(r.due)
}

// rowKey is a row's value tuple, the identity used to compare cluster
// answers (row indexes there are shard-scoped).
func rowKey(to []int64, po []string) string {
	var b strings.Builder
	for _, v := range to {
		fmt.Fprintf(&b, "%d,", v)
	}
	b.WriteByte('|')
	for _, v := range po {
		b.WriteString(v)
		b.WriteByte(',')
	}
	return b.String()
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends req and fills res from the response. Streams are read frame
// by frame so the first row frame is timestamped as it arrives.
func do(ctx context.Context, hc *http.Client, base string, method, path string, body []byte, hdr map[string]string, res *result) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		res.err = err
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		res.err = err
		res.end = time.Now()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		res.end = time.Now()
		res.err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
		return
	}
	if strings.Contains(path, "stream=1") {
		readStream(resp.Body, res)
		res.end = time.Now()
		return
	}
	b, err := io.ReadAll(resp.Body)
	res.end = time.Now()
	res.bytes = len(b)
	if err != nil {
		res.err = err
		return
	}
	if strings.HasSuffix(path, "rows:batch") {
		var br serve.BatchResponse
		if err := json.Unmarshal(b, &br); err != nil {
			res.err = fmt.Errorf("decode batch response: %w", err)
			return
		}
		res.version, res.versions, res.rows = br.Version, br.Versions, br.Rows
		return
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		res.err = fmt.Errorf("decode query response: %w", err)
		return
	}
	res.version, res.count, res.rows, res.metrics, res.cacheHit = qr.Version, qr.Count, qr.Rows, qr.Metrics, qr.CacheHit
	for _, r := range qr.Skyline {
		res.ids = append(res.ids, int32(r.Row))
		res.vals = append(res.vals, rowKey(r.TO, r.PO))
	}
	if qr.Cluster != nil {
		res.versions, res.pruned = qr.Cluster.Versions, len(qr.Cluster.Pruned)
	}
}

// readStream consumes an NDJSON stream: header, rows, trailer.
func readStream(body io.Reader, res *result) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	trailer := false
	for sc.Scan() {
		line := sc.Bytes()
		res.bytes += len(line) + 1
		var rec serve.StreamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			res.err = fmt.Errorf("decode stream frame: %w", err)
			return
		}
		switch rec.Type {
		case "header":
			res.version, res.rows = rec.Version, rec.Rows
		case "row":
			if res.first.IsZero() {
				res.first = time.Now()
			}
			res.ids = append(res.ids, int32(rec.Row.Row))
			res.vals = append(res.vals, rowKey(rec.Row.TO, rec.Row.PO))
		case "trailer":
			trailer = true
			res.count, res.cacheHit = rec.Count, rec.CacheHit
			if rec.Version != 0 {
				res.version = rec.Version
			}
			if rec.Metrics != nil {
				res.metrics = *rec.Metrics
			}
			if rec.Cluster != nil {
				res.versions, res.pruned = rec.Cluster.Versions, len(rec.Cluster.Pruned)
			}
		case "error":
			res.err = fmt.Errorf("stream error: %s", rec.Error)
			return
		}
	}
	if err := sc.Err(); err != nil {
		res.err = err
		return
	}
	if !trailer {
		res.err = fmt.Errorf("stream ended without a trailer")
	}
}

func postJSON(hc *http.Client, url string, body, out any) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(mustJSON(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}
