package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"videodb/internal/constraint"
	"videodb/internal/core"
	"videodb/internal/parser"
	"videodb/internal/store"
)

// --- Spans -------------------------------------------------------------------------

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call; nothing inside the program is instrumented.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) newReq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

func (t *tracer) add(name, layer string, req int64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Req: req, ID: id, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// recordOp records one load request: the generator's span from the
// scheduled send to the end of the answer check, with the HTTP round trip
// and the check as its children.
func (t *tracer) recordOp(o *op) {
	req := t.newReq()
	name := "server.query"
	if o.kind == opWrite {
		name = "server.script"
	}
	root := t.add("loadgen.request", "loadgen", req, -1, o.due, o.checked)
	t.add(name, "server", req, root, o.sent, o.done)
	t.add("loadgen.check", "loadgen", req, root, o.done, o.checked)
}

// selfTimes returns each layer's mean self time per span in ms: a span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		total[s.Layer] += float64(s.End-s.Start-covered) / 1e6
		count[s.Layer]++
	}
	out := map[string]float64{}
	for layer, v := range total {
		out[layer] = v / float64(count[layer])
	}
	return out
}

// --- Counters read around the measured window ------------------------------------

type counters struct {
	prom    map[string]float64
	plan    core.PlanCacheStats
	memo    constraint.MemoStats
	backend store.BackendStats
	rt      [4]float64
}

var runtimeNames = [4]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out [4]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// snapshot reads the server's /metrics and the DB's own statistics. The
// server is quiescent when it is called.
func snapshot(in *instance, client *http.Client) (counters, error) {
	c := counters{
		plan:    in.db.PlanCacheStats(),
		memo:    constraint.MemoSnapshot(),
		backend: in.db.Store().BackendStats(),
		rt:      readRuntime(),
	}
	resp, err := client.Get(in.url + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	c.prom = map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c.prom[line[:i]] = v
		}
	}
	return c, sc.Err()
}

// --- In-process layer probes (traced run only) -------------------------------------

// probeTable is one template's in-process timings, written to the trace file.
type probeTable struct {
	Template string  `json:"template"`
	Weight   int     `json:"weight"`
	ParseUs  float64 `json:"parse_query_us"`
	QueryMs  float64 `json:"core_query_ms"`
	EvalMs   float64 `json:"datalog_eval_ms"`
	Firings  float64 `json:"firings"`
	Rows     float64 `json:"rows"`
}

// runProbes calls each layer's public entry points directly on the
// program's database, after the load has stopped, and records spans
// around every call. It returns per-layer metrics and the per-template
// table; mismatched entailment verdicts count as wrong answers.
func runProbes(ctx context.Context, tr *tracer, repeats int, w workload, c *corpus, db *core.DB) (map[string]float64, []probeTable, int, error) {
	m := map[string]float64{}
	var tables []probeTable
	var wsum, parseW, queryW, evalW, firingsW, rowsW float64
	for _, mix := range w.Reads.Mix {
		pool := c.pools[mix.Template]
		pt := probeTable{Template: mix.Template, Weight: mix.Weight}
		for r := 0; r < repeats; r++ {
			q := pool[r%len(pool)]
			req := tr.newReq()
			t0 := time.Now()
			if _, err := parser.ParseQuery(q.text); err != nil {
				return nil, nil, 0, fmt.Errorf("parse %s: %w", q.text, err)
			}
			t1 := time.Now()
			rs, err := db.QueryContext(ctx, q.text)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("query %s: %w", q.text, err)
			}
			t2 := time.Now()
			root := tr.add("loadgen.probe", "loadgen", req, -1, t0, t2)
			tr.add("parser.ParseQuery", "parser", req, root, t0, t1)
			tr.add("core.DB.QueryContext", "core", req, root, t1, t2)
			pt.ParseUs += float64(t1.Sub(t0)) / 1e3
			pt.QueryMs += float64(t2.Sub(t1)) / 1e6
			pt.Firings += float64(rs.Stats.Firings)
			pt.Rows += float64(len(rs.Rows))
		}
		n := float64(repeats)
		pt.ParseUs /= n
		pt.QueryMs /= n
		pt.Firings /= n
		pt.Rows /= n
		// DB.QueryContext parses too; what is left is evaluation.
		pt.EvalMs = pt.QueryMs - pt.ParseUs/1e3
		tables = append(tables, pt)
		wt := float64(mix.Weight)
		wsum += wt
		parseW += wt * pt.ParseUs
		queryW += wt * pt.QueryMs
		evalW += wt * pt.EvalMs
		firingsW += wt * pt.Firings
		rowsW += wt * pt.Rows
	}
	m["parser.parse_query_us"] = parseW / wsum
	m["core.query_ms"] = queryW / wsum
	m["datalog.eval_ms"] = evalW / wsum
	m["datalog.firings_per_row"] = ratio(firingsW, rowsW)

	// Store scans, with and without the probe template's bound arguments.
	st := db.Store()
	var probeNs, fullNs float64
	probes := c.pools["probe"]
	for r := 0; r < repeats; r++ {
		for _, q := range probes {
			binds := []store.ArgBind{{Pos: 0, Val: ref(q.a)}, {Pos: 1, Val: ref(q.b)}}
			req := tr.newReq()
			t0 := time.Now()
			st.ScanFacts("appears_with", binds, func(store.Fact) bool { return true })
			t1 := time.Now()
			tr.add("store.ScanFacts", "store", req, -1, t0, t1)
			probeNs += float64(t1.Sub(t0))
		}
		req := tr.newReq()
		t0 := time.Now()
		st.ScanFacts("appears_with", nil, func(store.Fact) bool { return true })
		t1 := time.Now()
		tr.add("store.ScanFacts", "store", req, -1, t0, t1)
		fullNs += float64(t1.Sub(t0))
	}
	m["store.probe_scan_us"] = probeNs / float64(repeats*len(probes)) / 1e3
	m["store.full_scan_us"] = fullNs / float64(repeats) / 1e3

	// Entailment over every shot × occurrence pair of the archive, through
	// the solver entry point the => filter uses and through ContainsGen.
	var pairs [][2]int
	var occs []string
	for _, o := range c.objects {
		if !c.occ[o].IsEmpty() {
			occs = append(occs, o)
		}
	}
	for si := range c.shots {
		for oi := range occs {
			pairs = append(pairs, [2]int{si, oi})
		}
	}
	budget := constraint.NewBudget(0, nil)
	verdicts := make([]bool, len(pairs))
	req := tr.newReq()
	t0 := time.Now()
	for i, p := range pairs {
		ok, err := constraint.DurationFormula(c.shots[p[0]].span).EntailsWithin(
			constraint.DurationFormula(c.occ[occs[p[1]]]), budget)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("entailment: %w", err)
		}
		verdicts[i] = ok
	}
	t1 := time.Now()
	wrong := 0
	for i, p := range pairs {
		if c.occ[occs[p[1]]].ContainsGen(c.shots[p[0]].span) != verdicts[i] {
			wrong++
		}
	}
	t2 := time.Now()
	tr.add("constraint.Formula.EntailsWithin", "constraint", req, -1, t0, t1)
	tr.add("interval.Generalized.ContainsGen", "constraint", tr.newReq(), -1, t1, t2)
	m["constraint.entail_us_per_pair"] = float64(t1.Sub(t0)) / 1e3 / float64(len(pairs))
	m["constraint.containsgen_us_per_pair"] = float64(t2.Sub(t1)) / 1e3 / float64(len(pairs))

	// One ingest batch: parse alone, then applied through the DB facade.
	// The memtable is flushed first, so on the segment store the batches
	// pay for lookups across more than one segment, which the measured
	// window stays short of (see the hazards in config.json).
	if err := db.Checkpoint(); err != nil {
		return nil, nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	var parseNs, applyNs float64
	for _, b := range c.probes {
		req := tr.newReq()
		t0 := time.Now()
		if _, err := parser.Parse(b.script); err != nil {
			return nil, nil, 0, fmt.Errorf("parse batch: %w", err)
		}
		t1 := time.Now()
		if _, err := db.LoadScriptContext(ctx, b.script); err != nil {
			return nil, nil, 0, fmt.Errorf("apply batch: %w", err)
		}
		t2 := time.Now()
		tr.add("parser.Parse", "parser", req, -1, t0, t1)
		tr.add("core.DB.LoadScriptContext", "core", req, -1, t1, t2)
		parseNs += float64(t1.Sub(t0))
		applyNs += float64(t2.Sub(t1))
	}
	m["parser.parse_batch_us"] = parseNs / float64(len(c.probes)) / 1e3
	m["core.apply_batch_us"] = applyNs / float64(len(c.probes)) / 1e3
	return m, tables, wrong, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
