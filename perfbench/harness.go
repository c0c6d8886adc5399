package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	neturl "net/url"
	"sort"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/object"
	"videodb/internal/server"
	"videodb/internal/store/segment"
)

// instance is one running program: a durable database behind a real
// internal/server on a loopback listener.
type instance struct {
	dir    string
	db     *core.DB
	api    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
}

func segmentOptions(sc *segmentConfig, small bool) []segment.Option {
	opts := []segment.Option{
		segment.WithFlushThreshold(sc.FlushEveryRecords),
		segment.WithCompactThreshold(sc.CompactAtSegments),
	}
	if small {
		opts = append(opts, segment.WithBlockCacheBytes(sc.BlockCacheBytes))
	}
	return opts
}

// openStore opens the workload's durable store in dir: the WAL-backed mem
// store, or the segment store at the default (small=false) or the
// workload's (small=true) block-cache budget.
func openStore(w workload, dir string, small bool) (*core.DB, error) {
	if w.Backend == "segment" {
		return core.OpenSegment(dir, segmentOptions(w.Segment, small)...)
	}
	return core.Open(dir)
}

// setup makes the program ready from the generated corpus. The segment
// store is built at the default cache budget and reopened at the
// workload's, because building under a small budget is far slower (see
// seed_hazards in config.json).
func setup(cfg *config, w workload, c *corpus, dir string) (*instance, error) {
	db, err := openStore(w, dir, false)
	if err != nil {
		return nil, err
	}
	if _, err := db.LoadScript(c.script); err != nil {
		db.Close()
		return nil, fmt.Errorf("load archive: %w", err)
	}
	if w.Backend == "segment" {
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("close after build: %w", err)
		}
		if db, err = openStore(w, dir, true); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
	}
	if c.rules != "" {
		if _, err := db.LoadScript(c.rules); err != nil {
			db.Close()
			return nil, fmt.Errorf("install rules: %w", err)
		}
	}
	api := server.New(db,
		server.WithQueryTimeout(time.Duration(cfg.Server.QueryTimeoutMs)*time.Millisecond),
		server.WithAdmission(server.AdmissionConfig{
			MaxConcurrent: cfg.Server.MaxConcurrent,
			QueueDepth:    cfg.Server.QueueDepth,
		}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		db.Close()
		return nil, err
	}
	in := &instance{
		dir:    dir,
		db:     db,
		api:    api,
		hs:     &http.Server{Handler: api},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return in, nil
}

// stop closes the server, waits for it, and closes the database.
func (in *instance) stop() error {
	in.api.Close()
	in.hs.Close()
	<-in.served
	return in.db.Close()
}

// --- Load ----------------------------------------------------------------------

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one request of the load and everything measured about it.
type op struct {
	kind   opKind
	q      *query
	batch  int // index into corpus.live for writes
	tenant string
	offset time.Duration // scheduled send, relative to the phase start
	phase  int

	due, sent, done, checked time.Time
	status                   int
	bytes                    int
	err                      error
	wrong                    bool // answered, but not the expected answer
	resp                     *queryResp
	scheduled                bool     // open loop: sent on a schedule
	racing                   bool     // read beside writes: checked after the run
	rows                     []string // row keys of a racing read
}

func (o *op) latencyMs() float64 { return float64(o.done.Sub(o.due)) / 1e6 }

type loader struct {
	cfg    *config
	w      workload
	c      *corpus
	url    string
	client *http.Client
	ck     *checker
	tr     *tracer   // nil when untraced
	seen   *arrivals // rows on the standing SSE subscription
	drain  time.Duration
}

func newLoadClient(cfg *config) *http.Client {
	return &http.Client{
		Timeout: cfg.clientTimeout(),
		Transport: &http.Transport{
			MaxConnsPerHost:     cfg.LoadConnections,
			MaxIdleConnsPerHost: cfg.LoadConnections,
			DisableCompression:  true,
		},
	}
}

// Open-loop reads carry the identity (X-API-Key) of one of a zipfian
// population of clients, a few hot ones sending most of the traffic.
const (
	zipfClients = 100000
	zipfS       = 1.1
)

// readSequence draws read queries: template counts follow the mix weights
// exactly within every block of sum(weights) reads. The order of templates
// within the blocks is part of the workload and the same for every seed;
// the seed picks each template's arguments and the client identities.
type readSequence struct {
	c     *corpus
	rng   *rand.Rand
	order *rand.Rand
	block []string
	next  int
	zipf  *rand.Zipf
}

func newReadSequence(c *corpus, rc readConfig, rng *rand.Rand) *readSequence {
	rs := &readSequence{c: c, rng: rng, order: rand.New(rand.NewSource(1))}
	for _, m := range rc.Mix {
		for i := 0; i < m.Weight; i++ {
			rs.block = append(rs.block, m.Template)
		}
	}
	rs.next = len(rs.block)
	if rc.Loop == "open" {
		rs.zipf = rand.NewZipf(rng, zipfS, 1, zipfClients-1)
	}
	return rs
}

func (rs *readSequence) op() *op {
	if rs.next == len(rs.block) {
		rs.order.Shuffle(len(rs.block), func(i, j int) { rs.block[i], rs.block[j] = rs.block[j], rs.block[i] })
		rs.next = 0
	}
	pool := rs.c.pools[rs.block[rs.next]]
	rs.next++
	o := &op{kind: opRead, q: &pool[rs.rng.Intn(len(pool))]}
	if rs.zipf != nil {
		o.tenant = fmt.Sprintf("client-%06d", rs.zipf.Uint64())
	}
	return o
}

// writeLag is how far an open-loop write schedule trails the read
// schedule it runs beside: longer than a read takes to reach the server's
// read lock, shorter than a probe holds it.
const writeLag = 20 * time.Millisecond

// runPhase drives one phase and returns its operations. Open-loop streams
// are dispatched on a fixed schedule to at most load_connections workers;
// a request is timed from its scheduled send, so a stalled server or a
// busy generator shows up as latency. A closed-loop phase sends the next
// read when the previous one is answered.
func (d *loader) runPhase(ph phaseConfig, dur time.Duration, reads *readSequence, nextBatch *int) []*op {
	if ph.Reads && d.w.Reads.Loop == "closed" {
		return d.runClosed(dur, reads)
	}
	if ph.Writes && d.w.Writes.Loop == "closed" {
		return d.runClosedWrites(dur, nextBatch)
	}
	var ops []*op
	if ph.Reads {
		n := int(d.w.Reads.RatePerS * dur.Seconds())
		for i := 0; i < n; i++ {
			o := reads.op()
			o.racing = ph.Writes
			o.offset = time.Duration(float64(i) / d.w.Reads.RatePerS * float64(time.Second))
			ops = append(ops, o)
		}
	}
	if ph.Writes {
		// Beside reads, the write schedule trails the read schedule by
		// writeLag, so a write that falls after a read finds it holding
		// the read lock. Which writes wait behind a probe is then fixed
		// by the schedule, not decided by a race between the two sends.
		var lag time.Duration
		if ph.Reads {
			lag = writeLag
		}
		n := int(d.w.Writes.RatePerS * dur.Seconds())
		for i := 0; i < n && *nextBatch < len(d.c.live); i++ {
			ops = append(ops, &op{
				kind:   opWrite,
				batch:  *nextBatch,
				offset: lag + time.Duration(float64(i)/d.w.Writes.RatePerS*float64(time.Second)),
			})
			*nextBatch++
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].offset < ops[j].offset })

	work := make(chan *op)
	var wg sync.WaitGroup
	for i := 0; i < d.cfg.LoadConnections; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				d.do(o)
			}
		}()
	}
	start := time.Now()
	for _, o := range ops {
		o.scheduled = true
		o.due = start.Add(o.offset)
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		work <- o
	}
	close(work)
	wg.Wait()
	return ops
}

func (d *loader) runClosed(dur time.Duration, reads *readSequence) []*op {
	var ops []*op
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		o := reads.op()
		o.due = time.Now()
		d.do(o)
		ops = append(ops, o)
	}
	return ops
}

// runClosedWrites posts the next batch when the previous one is
// acknowledged and its row has arrived on the standing subscription (or
// the drain budget is spent; the missing row then counts as a failure).
func (d *loader) runClosedWrites(dur time.Duration, nextBatch *int) []*op {
	var ops []*op
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) && *nextBatch < len(d.c.live) {
		o := &op{kind: opWrite, batch: *nextBatch}
		*nextBatch++
		o.due = time.Now()
		d.do(o)
		ops = append(ops, o)
		if o.err == nil {
			d.seen.wait(d.c.live[o.batch].oid, d.drain)
		}
	}
	return ops
}

// do sends one request and checks its answer.
func (d *loader) do(o *op) {
	path, payload := "/v1/query", map[string]string{}
	if o.kind == opRead {
		payload["query"] = o.q.text
	} else {
		path = "/v1/script"
		payload["script"] = d.c.live[o.batch].script
	}
	body, err := json.Marshal(payload)
	if err != nil {
		o.err = err
		return
	}
	o.sent = time.Now()
	o.err = d.send(o, path, body)
	o.checked = time.Now()
	if d.tr != nil {
		d.tr.recordOp(o)
	}
}

func (d *loader) send(o *op, path string, body []byte) error {
	defer func() {
		if o.done.IsZero() {
			o.done = time.Now()
		}
	}()
	req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.tenant != "" {
		req.Header.Set("X-API-Key", o.tenant)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	o.bytes = len(data)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, data)
	}
	if o.kind == opWrite {
		return nil
	}
	var r queryResp
	if err := json.Unmarshal(data, &r); err != nil {
		o.wrong = true
		return fmt.Errorf("decode answer: %w", err)
	}
	o.resp = &r
	if o.racing {
		o.rows, err = rowKeys(r.Rows)
	} else {
		err = d.ck.check(o.q, &r)
	}
	r.Rows = nil // keep only the stats; a run must not hold every answer
	if err != nil {
		o.wrong = true
		return fmt.Errorf("%s: %w", o.q.text, err)
	}
	return nil
}

// --- Notifications -------------------------------------------------------------

// arrivals records when each shot first appeared as an inserted row on a
// standing subscription.
type arrivals struct {
	mu      sync.Mutex
	first   map[string]time.Time
	changed chan struct{} // closed and replaced on every new arrival
}

func newArrivals() *arrivals {
	return &arrivals{first: map[string]time.Time{}, changed: make(chan struct{})}
}

func (a *arrivals) add(row []object.Value, at time.Time) {
	if len(row) == 0 {
		return
	}
	oid, ok := row[0].AsRef()
	if !ok {
		return
	}
	a.mu.Lock()
	if _, dup := a.first[string(oid)]; !dup {
		a.first[string(oid)] = at
		close(a.changed)
		a.changed = make(chan struct{})
	}
	a.mu.Unlock()
}

// wait returns when oid has arrived or timeout has passed.
func (a *arrivals) wait(oid string, timeout time.Duration) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		a.mu.Lock()
		_, ok := a.first[oid]
		ch := a.changed
		a.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-ch:
		case <-t.C:
			return
		}
	}
}

func (a *arrivals) get(oid string) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.first[oid]
	return t, ok
}

// sseWatch holds the standing /v1/subscribe stream open and records delta
// arrivals. It uses its own connection, outside the load connections.
type sseWatch struct {
	got    *arrivals
	cancel context.CancelFunc
	done   chan struct{}
}

func watchSSE(baseURL string, sq subscription) (*sseWatch, error) {
	params := neturl.Values{"goal": {sq.Goal}, "rule": sq.Rules}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/v1/subscribe?"+params.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	// The snapshot frame comes first; after it every change is a delta.
	if ev, err := server.ReadSSE(br); err != nil || ev.Event != "snapshot" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: no snapshot frame (%q, %v)", ev.Event, err)
	}
	w := &sseWatch{got: newArrivals(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		for {
			ev, err := server.ReadSSE(br)
			if err != nil || ev.Event == "close" {
				return
			}
			at := time.Now()
			if ev.Event != "delta" {
				continue
			}
			var e struct {
				Sign int            `json:"sign"`
				Row  []object.Value `json:"row"`
			}
			if json.Unmarshal([]byte(ev.Data), &e) == nil && e.Sign > 0 {
				w.got.add(e.Row, at)
			}
		}
	}()
	return w, nil
}

func (w *sseWatch) stop() {
	w.cancel()
	<-w.done
}

// coreWatch is the in-process twin of sseWatch, on DB.SubscribeQuery.
type coreWatch struct {
	got    *arrivals
	sub    *core.Subscription
	cancel context.CancelFunc
	done   chan struct{}
}

func watchCore(db *core.DB, sq subscription) (*coreWatch, error) {
	sub, err := db.SubscribeQuery(sq.Rules, sq.Goal, core.SubOptions{})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &coreWatch{got: newArrivals(), sub: sub, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for {
			ev, err := sub.Next(ctx)
			if err != nil {
				return
			}
			if ev.Kind != core.SubSnapshot && ev.Sign > 0 {
				w.got.add(ev.Row, time.Now())
			}
		}
	}()
	return w, nil
}

func (w *coreWatch) stop() {
	w.cancel()
	w.sub.Close()
	<-w.done
}

// waitNotified waits until every acknowledged batch has arrived on got,
// or the drain budget is spent.
func waitNotified(got *arrivals, c *corpus, ops []*op, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for _, o := range ops {
		if o.kind == opWrite && o.err == nil {
			got.wait(c.live[o.batch].oid, time.Until(deadline))
		}
	}
}

var errNotNotified = errors.New("acknowledged batch never reached the standing subscription")
