package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datalab"
	"datalab/internal/server"
	"datalab/internal/sqlengine"
	"datalab/internal/wal"
)

// The serve_ingest workload: internal/server over loopback on a durable
// platform (fsync policy "always"). Two connections run open loop at fixed
// rates: one streams JSONL ingest batches into a million-row base table,
// the other sends bound-argument queries — small range aggregates and a
// grouped dashboard — over the growing, multi-chunk table. Latency counts
// from each request's due time. Set-up reopens the data directory, so WAL
// recovery is part of setup_s.

// The open-loop rates are fixed shares of each stream's closed-loop
// capacity as `perfbench saturate` measures it. On a 2-CPU sandbox the
// ingest stream alone completes about 400 requests/s and the query mix
// alone about 130 requests/s over the base table. Ingest offers 10% of
// its capacity and queries 30% of theirs, so the server runs well below
// saturation: latency is service time plus modest queueing, and
// throughput_ops_s and ingest_rows_s read back the offered rates until the
// server saturates. BENCHMARK.json's serve_ingest entry states the rates,
// the mix and the warm-up (a unit test keeps it in step).
const (
	serveBaseRows   = factRows
	ingestBatchRows = 250 // one ingest request, published as one chunk
	ingestPerSec    = 40  // ingest requests per second: 10k rows/s
	// serveWarmup runs both streams unmeasured before the measured phase:
	// the first ingest regrows the million-row arena, and the heap and GC
	// pacer settle after set-up.
	serveWarmup    = 3 * time.Second
	queriesPerSec  = 40
	serveSetupReps = 9
	rangeWidth     = 20_000
	serveFsync     = "always"
	dauMod         = 97 // ingested rows have dau_cnt = uin % dauMod
	queryMixLen    = 10 // statements in the query connection's repeating mix
)

// Bound-argument statements the query connection sends.
const (
	sqlRange     = "SELECT COUNT(*) AS n, SUM(dau_cnt) AS s FROM fact WHERE uin >= ? AND uin < ?"
	sqlCount     = "SELECT COUNT(*) AS n, SUM(uin) AS s FROM fact WHERE uin >= ?"
	sqlDashboard = "SELECT bg_cd, COUNT(*) AS n, SUM(dau_cnt) AS s FROM fact WHERE uin >= ? GROUP BY bg_cd ORDER BY bg_cd"
)

// serveOracle knows the base table and every ingest batch in closed form.
type serveOracle struct {
	base       int64
	dauPrefix  []int64               // dauPrefix[i] = sum of base dau_cnt over uin < i
	dashLo     []int64               // dashboard lower bounds
	dashBase   map[int64][4][2]int64 // lo -> per group (count, dau sum) over base rows uin >= lo
	batchGroup [][4][2]int64         // batchGroup[k]: per group (count, dau sum) over the first k batches
	maxBatches int
}

func newServeOracle(d *warehouseData, maxBatches int) *serveOracle {
	o := &serveOracle{base: serveBaseRows, maxBatches: maxBatches, dashBase: map[int64][4][2]int64{}}
	o.dauPrefix = make([]int64, serveBaseRows+1)
	for i := 0; i < serveBaseRows; i++ {
		o.dauPrefix[i+1] = o.dauPrefix[i] + d.dau[i]
	}
	o.dashLo = []int64{0, serveBaseRows / 2, serveBaseRows * 3 / 4}
	for _, lo := range o.dashLo {
		var g [4][2]int64
		for i := lo; i < serveBaseRows; i++ {
			g[d.bg[i]][0]++
			g[d.bg[i]][1] += d.dau[i]
		}
		o.dashBase[lo] = g
	}
	o.batchGroup = make([][4][2]int64, maxBatches+1)
	for k := 1; k <= maxBatches; k++ {
		g := o.batchGroup[k-1]
		for u := o.base + int64(k-1)*ingestBatchRows; u < o.base+int64(k)*ingestBatchRows; u++ {
			g[ingestGroup(u)][0]++
			g[ingestGroup(u)][1] += u % dauMod
		}
		o.batchGroup[k] = g
	}
	return o
}

// ingestGroup is the bg_cd code of ingested row uin.
func ingestGroup(uin int64) int { return int(uin % 4) }

// sumMod returns the sum of u % m over u in [a, b), in closed form.
func sumMod(a, b, m int64) int64 {
	f := func(n int64) int64 { // sum over [0, n)
		q, r := n/m, n%m
		return q*m*(m-1)/2 + r*(r-1)/2
	}
	if b <= a {
		return 0
	}
	return f(b) - f(a)
}

// batchBody is ingest batch k as JSONL rows in the fact schema.
func batchBody(base int64, k int) []byte {
	var b bytes.Buffer
	for r := 0; r < ingestBatchRows; r++ {
		u := base + int64(k)*ingestBatchRows + int64(r)
		fmt.Fprintf(&b, "[%d,%q,%q,%q,%d.25,%d.5,%d,\"2024-%02d-%02d\"]\n",
			u, productNames[(u/4)%4], channelIDs[u%channels], groupCodes[ingestGroup(u)],
			u%1000, u%9973, u%dauMod, 1+u%12, 1+u%28)
	}
	return b.Bytes()
}

// visibleBatches converts a visible row count into a batch count and
// checks it lies on a publish boundary within [lo, hi].
func (o *serveOracle) visibleBatches(rows int64, lo, hi int64) (int64, error) {
	extra := rows - o.base
	if extra < 0 || extra%ingestBatchRows != 0 {
		return 0, fmt.Errorf("%d visible rows is not base %d plus whole batches of %d", rows, o.base, ingestBatchRows)
	}
	k := extra / ingestBatchRows
	if k < lo || k > hi || k > int64(o.maxBatches) {
		return 0, fmt.Errorf("%d visible batches outside [%d, %d] (acknowledged before send, sent before reply)", k, lo, hi)
	}
	return k, nil
}

// wireReply is one parsed and validated JSONL response.
type wireReply struct {
	status    int
	rows      [][]any
	errorCode string
	bytes     int64
	sent      time.Time
	firstLine time.Time
	last      time.Time
	ingested  int64 // rows_appended_total of an ingest reply
	visible   int64 // rows_visible_total of an ingest reply

	// Open spans of a traced request: the whole request, then the wait for
	// the first line, then the stream up to the last line.
	tr                    *tracer
	req                   int64
	root, wait, streaming int
}

// closeSpans ends whichever of the request's spans are still open.
func (rep *wireReply) closeSpans() {
	for _, id := range []*int{&rep.streaming, &rep.wait, &rep.root} {
		rep.tr.end(*id)
		*id = -1
	}
}

// readReply reads and validates every JSONL line of a response.
func readReply(resp *http.Response, rep *wireReply) error {
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	var sentRows, seq int64
	done := false
	for n := 0; ; n++ {
		raw, err := br.ReadBytes('\n')
		if len(raw) > 0 {
			if n == 0 {
				rep.firstLine = time.Now()
				rep.tr.end(rep.wait)
				rep.wait = -1
				rep.streaming = rep.tr.begin("server.stream", rep.root, rep.req)
			}
			rep.bytes += int64(len(raw))
			if done {
				return fmt.Errorf("line %d after the terminal line", n+1)
			}
			var l map[string]any
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.UseNumber()
			if derr := dec.Decode(&l); derr != nil {
				return fmt.Errorf("line %d is not JSON: %v", n+1, derr)
			}
			switch l["code"] {
			case server.CodeStartup:
				if _, ok := l["columns"].([]any); !ok {
					return fmt.Errorf("startup line without columns")
				}
			case server.CodeProgress:
				if rows, ok := l["rows"].([]any); ok {
					seq++
					if num(l["batch_seq"]) != seq || num(l["batch_rows"]) != int64(len(rows)) {
						return fmt.Errorf("progress line %d: batch_seq/batch_rows disagree with its rows", seq)
					}
					for _, r := range rows {
						cells, ok := r.([]any)
						if !ok {
							return fmt.Errorf("progress row is not an array")
						}
						rep.rows = append(rep.rows, cells)
					}
					sentRows += int64(len(rows))
					if num(l["rows_sent"]) != sentRows {
						return fmt.Errorf("rows_sent %v, counted %d", l["rows_sent"], sentRows)
					}
				}
			case server.CodeOK:
				done = true
				if _, isQuery := l["batches_total"]; isQuery {
					if num(l["rows_total"]) != sentRows || num(l["batches_total"]) != seq {
						return fmt.Errorf("ok line totals %v/%v, counted %d rows in %d batches",
							l["rows_total"], l["batches_total"], sentRows, seq)
					}
				} else {
					rep.ingested, rep.visible = num(l["rows_appended_total"]), num(l["rows_visible_total"])
				}
			case server.CodeError:
				done = true
				rep.errorCode, _ = l["error_code"].(string)
			default:
				return fmt.Errorf("line %d has unknown code %v", n+1, l["code"])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	rep.last = time.Now()
	rep.closeSpans()
	if !done {
		return errors.New("response ended without an ok or error line")
	}
	return nil
}

// num reads a JSON integer (decoded with UseNumber); -1 if it is not one.
func num(v any) int64 {
	n, ok := v.(json.Number)
	if !ok {
		return -1
	}
	i, err := n.Int64()
	if err != nil {
		return -1
	}
	return i
}

// fnum reads a JSON number as a float; NaN-free callers compare exactly.
func fnum(v any) (float64, bool) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(n), 64)
	return f, err == nil
}

// serveRun is one measured phase against a running server.
type serveRun struct {
	base        string // http://host:port
	seed        int64
	oracle      *serveOracle
	start       time.Time // first request due
	measureFrom time.Time // requests due from here on are measured
	end         time.Time // no request is due from here on
	tr          *tracer
	// Requests per second of each stream; 0 runs the stream closed loop,
	// each request due as soon as the previous one has returned.
	ingestRate, queryRate int

	sentBatches  atomic.Int64 // ingest requests started
	ackedBatches atomic.Int64 // ingest requests acknowledged

	ingestClient, queryClient *http.Client
}

// streamStats is what one connection's loop measured.
type streamStats struct {
	lat       []float64 // ms from due time
	lag       []float64 // ms from due time to send
	attempted int64
	failed    int64
	refused   int64
	wrong     []string
	userBytes int64 // ingest request bodies
	rows      int64 // ingested rows of measured requests

	// traced windows, query connection only
	tracedLat, plainLat []float64
	firstLine, stream   []float64
	wireBytes, wireRows int64
}

func (s *streamStats) wrongf(format string, args ...any) {
	if len(s.wrong) < 20 {
		s.wrong = append(s.wrong, fmt.Sprintf(format, args...))
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// post sends one request and reads its reply; the reply's sent time is
// when the request left. With a tracer, spans open and close on the
// request path as the request leaves, its first line arrives and its last
// line arrives; id is the spans' request id.
func post(ctx context.Context, c *http.Client, url string, body []byte, tr *tracer, id int64) (*wireReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	rep := &wireReply{tr: tr, req: id, streaming: -1}
	rep.root = tr.begin("server.request", -1, id)
	rep.wait = tr.begin("server.first_line", rep.root, id)
	rep.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		rep.closeSpans()
		return nil, err
	}
	err = readReply(resp, rep)
	rep.closeSpans()
	return rep, err
}

// sleepUntil waits for t or ctx.
func sleepUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
	}
}

// schedule returns the due times of a stream of rate requests per second:
// request i falls at a seeded random point of the i-th 1/rate slot. The
// jitter keeps the streams from locking onto each other or onto the
// garbage collector's own period. Call it with i = 0, 1, 2, ...
func (s *serveRun) schedule(stream uint64, rate int) func(i int) time.Time {
	if rate == 0 {
		return func(int) time.Time { return time.Now() }
	}
	interval := time.Second / time.Duration(rate)
	r := newRand(s.seed, stream)
	return func(i int) time.Time {
		return s.start.Add(time.Duration(i)*interval + time.Duration(r.Int64N(int64(interval))))
	}
}

func (s *serveRun) ingestLoop(ctx context.Context, st *streamStats) {
	dueAt := s.schedule(200, s.ingestRate)
	for i := int(s.sentBatches.Load()); ; i++ {
		due := dueAt(i)
		if !due.Before(s.end) || ctx.Err() != nil || i >= s.oracle.maxBatches {
			return
		}
		body := batchBody(s.oracle.base, i)
		sleepUntil(ctx, due)
		s.sentBatches.Store(int64(i + 1))
		st.attempted++
		lag := ms(time.Since(due))
		rep, err := post(ctx, s.ingestClient, s.base+"/v1/ingest/fact", body, nil, 0)
		switch {
		case err != nil:
			st.failed++
			st.wrongf("ingest batch %d: %v", i, err)
			return // later batches would no longer be contiguous
		case rep.status == http.StatusTooManyRequests:
			st.refused++
			return
		case rep.status != http.StatusOK || rep.errorCode != "":
			st.failed++
			st.wrongf("ingest batch %d: status %d %s", i, rep.status, rep.errorCode)
			return
		}
		want := s.oracle.base + int64(i+1)*ingestBatchRows
		if rep.ingested != ingestBatchRows || rep.visible != want {
			st.wrongf("ingest batch %d: appended %d visible %d, want %d and %d", i, rep.ingested, rep.visible, ingestBatchRows, want)
		}
		s.ackedBatches.Store(int64(i + 1))
		st.userBytes += int64(len(body))
		if !due.Before(s.measureFrom) {
			st.lat = append(st.lat, ms(rep.last.Sub(due)))
			st.lag = append(st.lag, lag)
			st.rows += ingestBatchRows
		}
	}
}

// serveQuery is one bound-argument request with its checker.
type serveQuery struct {
	name  string
	sql   string
	args  []any
	check func(rows [][]any, lo, hi int64) error
}

// queryMix returns query i of the repeating mix of ten: seven range
// aggregates inside the base rows, then one full count, one grouped
// dashboard and one range over the growing tail. Every statement but the
// dashboard costs about one filtered scan, so the median falls among
// them and the 95th percentile among the dashboards.
func (s *serveRun) queryMix(i int) serveQuery {
	o := s.oracle
	r := newRand(s.seed, uint64(i))
	switch i % queryMixLen {
	case 7:
		return serveQuery{"count", sqlCount, []any{0}, func(rows [][]any, lo, hi int64) error {
			n, sum, err := twoNumbers(rows)
			if err != nil {
				return err
			}
			if _, err := o.visibleBatches(int64(n), lo, hi); err != nil {
				return err
			}
			if want := n * (n - 1) / 2; sum != want {
				return fmt.Errorf("SUM(uin) over %v rows = %v, want %v", n, sum, want)
			}
			return nil
		}}
	case 8:
		from := o.dashLo[(i/queryMixLen)%len(o.dashLo)]
		return serveQuery{"dashboard", sqlDashboard, []any{from}, func(rows [][]any, lo, hi int64) error {
			if len(rows) != len(groupCodes) {
				return fmt.Errorf("%d groups, want %d", len(rows), len(groupCodes))
			}
			total := int64(0)
			for _, row := range rows {
				c, _ := fnum(row[1])
				total += int64(c)
			}
			k, err := o.visibleBatches(total+from, lo, hi)
			if err != nil {
				return err
			}
			for _, row := range rows {
				name, _ := row[0].(string)
				g := indexOf(groupCodes, name)
				if g < 0 {
					return fmt.Errorf("unexpected group %q", name)
				}
				c, _ := fnum(row[1])
				s, _ := fnum(row[2])
				wantC := o.dashBase[from][g][0] + o.batchGroup[k][g][0]
				wantS := o.dashBase[from][g][1] + o.batchGroup[k][g][1]
				if int64(c) != wantC || s != float64(wantS) {
					return fmt.Errorf("group %s: (%v, %v), want (%d, %d) at %d batches", name, c, s, wantC, wantS, k)
				}
			}
			return nil
		}}
	case 9:
		from := o.base - rangeWidth/2 - int64(r.IntN(rangeWidth/2))
		to := o.base + int64(o.maxBatches)*ingestBatchRows + 1
		return serveQuery{"range_tail", sqlRange, []any{from, to}, func(rows [][]any, lo, hi int64) error {
			n, sum, err := twoNumbers(rows)
			if err != nil {
				return err
			}
			k, err := o.visibleBatches(int64(n)+from, lo, hi)
			if err != nil {
				return err
			}
			want := o.dauPrefix[o.base] - o.dauPrefix[from] + sumMod(o.base, o.base+k*ingestBatchRows, dauMod)
			if sum != float64(want) {
				return fmt.Errorf("SUM(dau_cnt) = %v, want %d at %d batches", sum, want, k)
			}
			return nil
		}}
	default:
		from := int64(r.IntN(int(o.base - rangeWidth)))
		to := from + rangeWidth
		return serveQuery{"range", sqlRange, []any{from, to}, func(rows [][]any, lo, hi int64) error {
			n, sum, err := twoNumbers(rows)
			if err != nil {
				return err
			}
			want := o.dauPrefix[to] - o.dauPrefix[from]
			if n != rangeWidth || sum != float64(want) {
				return fmt.Errorf("(%v, %v), want (%d, %d)", n, sum, rangeWidth, want)
			}
			return nil
		}}
	}
}

// twoNumbers reads a one-row result of two numeric columns.
func twoNumbers(rows [][]any) (float64, float64, error) {
	if len(rows) != 1 || len(rows[0]) != 2 {
		return 0, 0, fmt.Errorf("want one row of two columns, got %v", rows)
	}
	a, ok1 := fnum(rows[0][0])
	b, ok2 := fnum(rows[0][1])
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("non-numeric row %v", rows[0])
	}
	return a, b, nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func (s *serveRun) queryLoop(ctx context.Context, st *streamStats) {
	dueAt := s.schedule(100, s.queryRate)
	for i := 0; ; i++ {
		due := dueAt(i)
		if !due.Before(s.end) || ctx.Err() != nil {
			return
		}
		q := s.queryMix(i)
		body, err := json.Marshal(map[string]any{"sql": q.sql, "args": q.args})
		if err != nil {
			st.failed++
			st.wrongf("query %d: %v", i, err)
			return
		}
		// Traced runs alternate one-second windows. Requests due in odd
		// windows carry spans; the per-layer numbers come from them, and
		// the overhead from comparing their latency with the even windows'.
		var wtr *tracer
		traced := s.tr != nil && int(due.Sub(s.start)/time.Second)%2 == 1
		if traced {
			wtr = s.tr
		}
		sleepUntil(ctx, due)
		lo := s.ackedBatches.Load()
		st.attempted++
		lag := ms(time.Since(due))
		rep, err := post(ctx, s.queryClient, s.base+"/v1/query", body, wtr, int64(i))
		hi := s.sentBatches.Load()
		switch {
		case err != nil:
			st.failed++
			st.wrongf("query %d (%s): %v", i, q.name, err)
			continue
		case rep.status == http.StatusTooManyRequests:
			st.refused++
			continue
		case rep.status != http.StatusOK || rep.errorCode != "":
			st.failed++
			st.wrongf("query %d (%s): status %d %s", i, q.name, rep.status, rep.errorCode)
			continue
		}
		if err := q.check(rep.rows, lo, hi); err != nil {
			st.wrongf("query %d (%s %v): %v", i, q.name, q.args, err)
		}
		if due.Before(s.measureFrom) {
			continue
		}
		lat := ms(rep.last.Sub(due))
		st.lat = append(st.lat, lat)
		st.lag = append(st.lag, lag)
		if s.tr == nil {
			continue
		}
		if !traced {
			st.plainLat = append(st.plainLat, lat)
			continue
		}
		st.tracedLat = append(st.tracedLat, lat)
		st.firstLine = append(st.firstLine, ms(rep.firstLine.Sub(rep.sent)))
		st.stream = append(st.stream, ms(rep.last.Sub(rep.firstLine)))
		st.wireBytes += rep.bytes
		st.wireRows += int64(len(rep.rows))
	}
}

// stats fetches /v1/stats.
func stats(ctx context.Context, c *http.Client, base string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var l map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return l, nil
}

// liveServer is a platform served over loopback.
type liveServer struct {
	p    *datalab.Platform
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// openServer reopens the data directory (recovering it) and starts the
// server. It returns once /healthz answers, with the OpenDurable time.
func openServer(ctx context.Context, dir string, c *http.Client) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	p, err := datalab.OpenDurable(dir, datalab.DurabilityOptions{Fsync: serveFsync})
	recovery := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, 0, err
	}
	ls := &liveServer{p: p, srv: server.New(p, server.Config{}, io.Discard), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ls.url+"/healthz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = c.Do(req); err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		ls.close()
		return nil, 0, err
	}
	return ls, recovery, nil
}

// close stops the HTTP server, waits for it, and closes the platform.
func (ls *liveServer) close() error {
	ls.hs.Close()
	<-ls.done
	ls.srv.Close()
	return ls.p.Close()
}

// prepareDataDir writes the base table into a fresh durable data
// directory through the WAL's registration path and closes it.
func prepareDataDir(dir string, d *warehouseData) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	m, _, err := wal.Open(dir, wal.Options{Fsync: wal.PolicyAlways})
	if err != nil {
		return err
	}
	cat := sqlengine.NewCatalog()
	cat.SetRegisterHook(m.Track)
	if err := cat.RegisterErr(d.tables[0]); err != nil {
		m.Close()
		return err
	}
	return m.Close()
}

// recoveredChunks reads the data directory back and reports the fact
// table's chunk and row counts from Catalog.Snapshot.
func recoveredChunks(dir string) (int64, int64, error) {
	rec, err := wal.Recover(dir)
	if err != nil {
		return 0, 0, err
	}
	cat := sqlengine.NewCatalog()
	for _, app := range rec.Appenders {
		cat.RegisterAppender(app)
	}
	s, ok := cat.Snapshot("fact")
	if !ok {
		return 0, 0, errors.New("fact missing after recovery")
	}
	return int64(s.NumChunks()), int64(s.NumRows()), nil
}

// serveEnv is a server over a freshly written and recovered data
// directory, with the oracle of its base table.
type serveEnv struct {
	oracle                    *serveOracle
	dir                       string
	ls                        *liveServer
	ingestClient, queryClient *http.Client
	setup, recoverMS          []float64 // per set-up repetition: s, ms
	chunks0                   int64     // fact chunks before any ingest (traced runs only)
}

// openServe writes the base table to a fresh data directory, then reopens
// it reps times, recovering it and starting the server each time; the
// last server stays up. It times each reopen.
func openServe(ctx context.Context, seed int64, workDir string, maxBatches, reps int, countChunks bool) (*serveEnv, error) {
	d := genWarehouse(seed)
	e := &serveEnv{
		oracle:       newServeOracle(d, maxBatches),
		dir:          filepath.Join(workDir, fmt.Sprintf("serve-data-%d", os.Getpid())),
		ingestClient: newClient(), queryClient: newClient(),
	}
	if err := prepareDataDir(e.dir, d); err != nil {
		e.close()
		return nil, fmt.Errorf("prepare data dir: %w", err)
	}
	d.tables = nil // the oracle keeps what it needs
	if countChunks {
		var err error
		if e.chunks0, _, err = recoveredChunks(e.dir); err != nil {
			e.close()
			return nil, err
		}
	}
	for rep := 0; rep < reps; rep++ {
		if err := e.stopServer(); err != nil {
			e.close()
			return nil, err
		}
		e.queryClient.CloseIdleConnections()
		runtime.GC()
		t0 := time.Now()
		l, recovery, err := openServer(ctx, e.dir, e.queryClient)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("open server: %w", err)
		}
		e.setup = append(e.setup, time.Since(t0).Seconds())
		e.recoverMS = append(e.recoverMS, ms(recovery))
		e.ls = l
	}
	return e, nil
}

// stopServer stops the server and closes the platform, once.
func (e *serveEnv) stopServer() error {
	if e.ls == nil {
		return nil
	}
	err := e.ls.close()
	e.ls = nil
	return err
}

// close stops the server, closes idle client connections and removes the
// data directory.
func (e *serveEnv) close() {
	e.stopServer() //nolint:errcheck // best effort on the way out
	e.ingestClient.CloseIdleConnections()
	e.queryClient.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// warmUp sends each distinct statement of the mix once, before any
// ingest, which fills the plan cache, and checks the answers.
func (s *serveRun) warmUp(ctx context.Context, oc *outcome) error {
	for _, i := range []int{0, 7, 8} {
		q := s.queryMix(i)
		body, err := json.Marshal(map[string]any{"sql": q.sql, "args": q.args})
		if err != nil {
			return err
		}
		rep, err := post(ctx, s.queryClient, s.base+"/v1/query", body, nil, 0)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", q.name, err)
		}
		if err := q.check(rep.rows, 0, 0); err != nil {
			oc.wrongf("serve_ingest warm-up %s: %v", q.name, err)
		}
	}
	return nil
}

func runServe(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	maxBatches := int((cfg.seconds+serveWarmup.Seconds())*ingestPerSec) + 1
	env, err := openServe(ctx, cfg.seed, cfg.workDir, maxBatches, serveSetupReps, tr != nil)
	if err != nil {
		return nil, err
	}
	defer env.close()
	oracle, ls, queryClient := env.oracle, env.ls, env.queryClient
	oc := &outcome{setup: env.setup}
	run := &serveRun{base: ls.url, seed: cfg.seed, oracle: oracle, tr: tr,
		ingestRate: ingestPerSec, queryRate: queriesPerSec,
		ingestClient: env.ingestClient, queryClient: queryClient}
	if err := run.warmUp(ctx, oc); err != nil {
		return nil, err
	}
	s0, err := stats(ctx, queryClient, ls.url)
	if err != nil {
		return nil, err
	}
	parse0 := sqlengine.ParseCalls()
	rtr := newRTReader()
	var ing, qry streamStats
	startMeasuredPhase()
	before := rtr.read()
	run.start = time.Now()
	run.measureFrom = run.start.Add(serveWarmup)
	run.end = run.measureFrom.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run.ingestLoop(ctx, &ing) }()
	go func() { defer wg.Done(); run.queryLoop(ctx, &qry) }()
	wg.Wait()
	elapsed := time.Since(run.measureFrom).Seconds()
	oc.rt = before.to(rtr.read())
	parses := sqlengine.ParseCalls() - parse0
	s1, err := stats(ctx, queryClient, ls.url)
	if err != nil {
		return nil, err
	}

	// The final count must be the base plus every acknowledged batch.
	acked := run.ackedBatches.Load()
	if run.sentBatches.Load() != acked {
		oc.wrongf("serve_ingest: %d ingest batches sent but %d acknowledged", run.sentBatches.Load(), acked)
	}
	body, _ := json.Marshal(map[string]any{"sql": sqlCount, "args": []any{0}})
	if rep, err := post(ctx, queryClient, ls.url+"/v1/query", body, nil, 0); err != nil {
		return nil, fmt.Errorf("final count: %w", err)
	} else if n, _, err := twoNumbers(rep.rows); err != nil || int64(n) != oracle.base+acked*ingestBatchRows {
		oc.wrongf("serve_ingest: final count %v (%v), want %d", n, err, oracle.base+acked*ingestBatchRows)
	}

	for _, st := range []*streamStats{&ing, &qry} {
		oc.attempted += st.attempted
		oc.failed += st.failed
		oc.refused += st.refused
		for _, w := range st.wrong {
			oc.wrongf("serve_ingest: %s", w)
		}
	}
	oc.lat = qry.lat
	oc.busy = elapsed
	oc.rtOps = oc.attempted
	oc.ingestRate = []float64{float64(ing.rows) / elapsed}
	oc.ingestLat = [][]float64{ing.lat}
	if tr == nil {
		return oc, nil
	}

	if err := env.stopServer(); err != nil {
		return nil, err
	}
	chunks1, rows1, err := recoveredChunks(env.dir)
	if err != nil {
		return nil, err
	}
	if rows1 != oracle.base+acked*ingestBatchRows {
		oc.wrongf("serve_ingest: %d rows recovered, want %d", rows1, oracle.base+acked*ingestBatchRows)
	}
	m := zeroLayers()
	m["server.first_line_ms"] = metric{mean(qry.firstLine), "ms"}
	m["server.stream_ms"] = metric{mean(qry.stream), "ms"}
	m["server.wire_bytes_per_row"] = metric{ratio(qry.wireBytes, qry.wireRows), "B"}
	m["server.backpressure_ratio"] = metric{ratio(ing.refused+qry.refused, oc.attempted), "ratio"}
	m["wal.bytes_per_user_byte"] = metric{ratio(num(s1["wal_bytes_total"])-num(s0["wal_bytes_total"]), ing.userBytes), "ratio"}
	m["wal.checkpoints"] = metric{float64(num(s1["checkpoints_total"]) - num(s0["checkpoints_total"])), "count"}
	m["wal.recover_ms"] = metric{median(env.recoverMS), "ms"}
	m["table.chunks"] = metric{float64(chunks1), "count"}
	m["table.rows_per_publish"] = metric{ratio(acked*ingestBatchRows, chunks1-env.chunks0), "count"}
	hits := num(s1["plan_cache_hits_total"]) - num(s0["plan_cache_hits_total"])
	misses := num(s1["plan_cache_misses_total"]) - num(s0["plan_cache_misses_total"])
	m["sqlengine.plan_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["sqlengine.parse_calls"] = metric{float64(parses), "count"}
	m["loadgen.lag_p95_ms"] = metric{percentile(append(ing.lag, qry.lag...), 95), "ms"}
	runtimeLayers(m, oc.rt, oc.attempted)
	m["trace_overhead_ratio"] = metric{median(qry.tracedLat) / median(qry.plainLat), "ratio"}
	oc.layers = m
	return oc, nil
}
