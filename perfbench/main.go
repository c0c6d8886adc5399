// Command perfbench is videodb's end-to-end benchmark. It starts a real
// internal/server on a loopback listener over a generated internal/video
// corpus, drives one workload against it from this process, checks every
// answer, and prints one JSON result line.
//
//	perfbench -workload temporal_analytics -seed 1 -seconds 50 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics of one untraced
// pass. With -trace 1 the run makes an untraced pass and then a traced
// pass on a fresh program; the result holds the per-layer metrics of the
// traced pass and the tracing overhead (traced minus untraced), and the
// spans are written to <out>/trace-<workload>-seed<seed>.json.
// Workload definitions live in config.json. run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"videodb/internal/core"
	"videodb/internal/object"
	"videodb/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name from config.json")
	seed := flag.Int64("seed", 1, "seed for the corpus, the ingest stream and the request mix")
	seconds := flag.Float64("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch data and trace files")
	flag.Parse()

	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, ok := cfg.Workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(cfg), "|"))
		return 2
	}
	res, err := measure(cfg, *name, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames(cfg *config) []string {
	var names []string
	for n := range cfg.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// units of every reported metric; a name missing here is a bug.
var units = map[string]string{
	"setup_s":                  "s",
	"read_p50_ms":              "ms",
	"read_p90_ms":              "ms",
	"ok_per_s":                 "1/s",
	"ok_ratio":                 "ratio",
	"write_p50_ms":             "ms",
	"write_p90_ms":             "ms",
	"notify_p50_ms":            "ms",
	"notify_p90_ms":            "ms",
	"peak_rss_mb":              "MiB",
	"disk_bytes_per_user_byte": "ratio",

	"server.eval_ms_mean":                "ms",
	"server.admission_wait_ms_mean":      "ms",
	"server.wire_ms_mean":                "ms",
	"server.response_bytes_per_read":     "bytes",
	"server.admission_rejected":          "count",
	"parser.parse_query_us":              "us",
	"parser.parse_batch_us":              "us",
	"core.plancache_hit_ratio":           "ratio",
	"core.query_ms":                      "ms",
	"core.apply_batch_us":                "us",
	"core.notify_ms_p50":                 "ms",
	"datalog.eval_ms":                    "ms",
	"datalog.rounds_per_query":           "count",
	"datalog.derived_per_query":          "count",
	"datalog.firings_per_row":            "ratio",
	"constraint.solver_steps_per_query":  "count",
	"constraint.memo_hit_ratio":          "ratio",
	"constraint.memo_flushes":            "count",
	"constraint.entail_us_per_pair":      "us",
	"constraint.containsgen_us_per_pair": "us",
	"store.probe_scan_us":                "us",
	"store.full_scan_us":                 "us",
	"store.reopen_s":                     "s",
	"segment.cache_hit_ratio":            "ratio",
	"segment.cache_misses_per_read":      "count",
	"segment.cache_evictions":            "count",
	"segment.flushes":                    "count",
	"segment.compactions":                "count",
	"segment.read_errors":                "count",
	"go.alloc_bytes_per_op":              "bytes",
	"go.allocs_per_op":                   "count",
	"go.gc_cpu_fraction":                 "ratio",
	"loadgen.lag_p95_ms":                 "ms",
	"loadgen.read_p99_ms":                "ms",
	"loadgen.write_p99_ms":               "ms",
	"trace.self_ms.loadgen":              "ms",
	"trace.self_ms.server":               "ms",
	"trace.self_ms.parser":               "ms",
	"trace.self_ms.core":                 "ms",
	"trace.self_ms.store":                "ms",
	"trace.self_ms.constraint":           "ms",
	"trace.overhead_read_p50_ms":         "ms",
	"trace.overhead_write_p50_ms":        "ms",
	"trace.overhead_ok_per_s":            "1/s",
}

var endToEnd = []string{
	"setup_s", "read_p50_ms", "read_p90_ms", "ok_per_s", "ok_ratio",
	"write_p50_ms", "write_p90_ms", "notify_p50_ms", "notify_p90_ms",
	"peak_rss_mb", "disk_bytes_per_user_byte",
}

// measure builds the inputs, runs the passes and assembles the result.
func measure(cfg *config, name string, w workload, seed int64, dur time.Duration, traced bool, out string) (*result, error) {
	nWrites := w.maxWrites(dur)
	if nWrites == 0 {
		return nil, fmt.Errorf("workload %s posts no writes in %s", name, dur)
	}
	c, err := buildCorpus(w, seed, nWrites)
	if err != nil {
		return nil, err
	}
	ck := newChecker()
	var pooled []query
	for _, m := range w.Reads.Mix {
		pooled = append(pooled, c.pools[m.Template]...)
	}
	if w.Rules {
		oracle := core.New()
		_, err := oracle.LoadScript(c.script + "\n" + c.rules)
		if err == nil {
			err = ck.expectOracle(oracle, pooled)
		}
		oracle.Close()
		if err != nil {
			return nil, err
		}
	} else {
		ck.expectTruth(c, pooled)
	}

	dir := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	plain, err := runPass(cfg, w, c, ck, seed, dur, filepath.Join(dir, "plain"), false)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   plain.wrong == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]metricValue{},
	}
	if !traced {
		for _, k := range endToEnd {
			res.Metrics[k] = metricValue{plain.e2e[k], units[k]}
		}
		return res, nil
	}

	tr, err := runPass(cfg, w, c, ck, seed, dur, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && tr.wrong == 0
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	tr.layer["trace.overhead_read_p50_ms"] = tr.e2e["read_p50_ms"] - plain.e2e["read_p50_ms"]
	tr.layer["trace.overhead_write_p50_ms"] = tr.e2e["write_p50_ms"] - plain.e2e["write_p50_ms"]
	tr.layer["trace.overhead_ok_per_s"] = tr.e2e["ok_per_s"] - plain.e2e["ok_per_s"]
	for k, v := range tr.layer {
		u, ok := units[k]
		if !ok {
			return nil, fmt.Errorf("metric %s has no unit", k)
		}
		res.Metrics[k] = metricValue{v, u}
	}
	if err := writeTrace(out, name, seed, dur, c, plain, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// passResult is what one pass measured.
type passResult struct {
	attempted, failed, wrong int
	e2e                      map[string]float64
	layer                    map[string]float64
	tables                   []probeTable
	spans                    []span
	failures                 []string // first few, for the trace file and stderr
}

// runPass sets the program up (several times, keeping the last), drives
// the workload's phases, checks answers, durability and notifications,
// and computes the metrics.
func runPass(cfg *config, w workload, c *corpus, ck *checker, seed int64, dur time.Duration, dir string, traced bool) (*passResult, error) {
	var setups []float64
	var in *instance
	for i := 0; i < cfg.SetupRepeats; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0 := time.Now()
		x, err := setup(cfg, w, c, d)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.SetupRepeats-1 {
			if err := x.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(d)
			continue
		}
		in = x
	}
	stopped := false
	defer func() {
		if !stopped {
			in.stop()
		}
	}()

	client := newLoadClient(cfg)
	defer client.CloseIdleConnections()
	sse, err := watchSSE(in.url, w.Subscription)
	if err != nil {
		return nil, err
	}
	defer sse.stop()
	var tr *tracer
	var cw *coreWatch
	if traced {
		tr = newTracer()
		if cw, err = watchCore(in.db, w.Subscription); err != nil {
			return nil, err
		}
		defer cw.stop()
	}

	// Warm up: every pooled query once, answers checked, times not kept,
	// so plan caches, the solver memo and lazy set-up are filled before
	// the measured window, as they are on a server that has been running.
	drain := time.Duration(cfg.NotifyDrainMs) * time.Millisecond
	d := &loader{cfg: cfg, w: w, c: c, url: in.url, client: client, ck: ck, seen: sse.got, drain: drain}
	var warm []*op
	for _, m := range w.Reads.Mix {
		pool := c.pools[m.Template]
		for i := range pool {
			o := &op{kind: opRead, q: &pool[i]}
			o.due = time.Now()
			d.do(o)
			warm = append(warm, o)
		}
	}

	before, err := snapshot(in, client)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	reads := newReadSequence(c, w.Reads, rng)
	d.tr = tr
	nextBatch := 0
	var ops []*op
	wall := 0.0
	nPhases := w.Cycles * len(w.Phases)
	for i := 0; i < nPhases; i++ {
		ph := w.Phases[i%len(w.Phases)]
		// Start every phase with a settled heap, so garbage from the
		// warm-up or the previous phase is not collected inside it.
		runtime.GC()
		start := time.Now()
		phaseOps := d.runPhase(ph, w.phaseDuration(ph, dur), reads, &nextBatch)
		wall += time.Since(start).Seconds()
		for _, o := range phaseOps {
			o.phase = i
		}
		ops = append(ops, phaseOps...)
	}
	waitNotified(sse.got, c, ops, drain)
	if cw != nil {
		waitNotified(cw.got, c, ops, drain)
	}
	after, err := snapshot(in, client)
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(in.dir)
	if err != nil {
		return nil, err
	}

	res := &passResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	if traced {
		probeM, tables, wrong, err := runProbes(context.Background(), tr, cfg.ProbeRepeats, w, c, in.db)
		if err != nil {
			return nil, err
		}
		for k, v := range probeM {
			res.layer[k] = v
		}
		res.tables = tables
		res.wrong += wrong
	}

	stopped = true
	if err := in.stop(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	t0 := time.Now()
	db, err := openStore(w, in.dir, true)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	reopen := time.Since(t0).Seconds()
	verifyDurable(db, c, ops)
	if err := db.Close(); err != nil {
		return nil, err
	}
	checkRacingReads(c, ops)

	// Outcomes. Latencies are kept per phase, in schedule order, for
	// windowed percentiles.
	var readLat, writeLat, lag, notify, coreNotify, wireMs []float64
	readByPhase := make([][]float64, nPhases)
	writeByPhase := make([][]float64, nPhases)
	notifyByPhase := make([][]float64, nPhases)
	var okOps, readOK int
	var bytesRead, rounds, derived, steps, memoHits, memoMisses float64
	userBytes := float64(len(c.script))
	for _, o := range ops {
		if o.kind == opWrite && o.err == nil {
			at, ok := sse.got.get(c.live[o.batch].oid)
			if !ok {
				o.err = errNotNotified
				o.wrong = true
			} else {
				notify = append(notify, float64(at.Sub(o.due))/1e6)
				notifyByPhase[o.phase] = append(notifyByPhase[o.phase], notify[len(notify)-1])
			}
			if cw != nil {
				if at, ok := cw.got.get(c.live[o.batch].oid); ok {
					coreNotify = append(coreNotify, float64(at.Sub(o.due))/1e6)
				}
			}
		}
		if o.err == nil {
			okOps++
		}
		if o.scheduled {
			lag = append(lag, float64(o.sent.Sub(o.due))/1e6)
		}
		if o.status != 200 {
			continue
		}
		wireMs = append(wireMs, float64(o.done.Sub(o.sent))/1e6)
		switch o.kind {
		case opRead:
			readLat = append(readLat, o.latencyMs())
			readByPhase[o.phase] = append(readByPhase[o.phase], o.latencyMs())
			readOK++
			bytesRead += float64(o.bytes)
			if o.resp != nil {
				rounds += float64(o.resp.Stats.Rounds)
				derived += float64(o.resp.Stats.Derived)
				steps += float64(o.resp.Stats.SolverSteps)
				memoHits += float64(o.resp.Stats.MemoHits)
				memoMisses += float64(o.resp.Stats.MemoMisses)
			}
		case opWrite:
			writeLat = append(writeLat, o.latencyMs())
			writeByPhase[o.phase] = append(writeByPhase[o.phase], o.latencyMs())
			userBytes += float64(len(c.live[o.batch].script))
		}
	}
	res.tally(warm)
	res.tally(ops)
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
	if len(readLat) == 0 || len(writeLat) == 0 || len(notify) == 0 {
		return nil, fmt.Errorf("no successful reads, writes or notifications (%d/%d/%d); first failure: %v",
			len(readLat), len(writeLat), len(notify), res.failures)
	}

	e := res.e2e
	e["setup_s"] = median(setups)
	e["read_p50_ms"] = windowed(readByPhase, 0.50)
	e["read_p90_ms"] = windowed(readByPhase, 0.90)
	e["ok_per_s"] = float64(okOps) / wall
	e["ok_ratio"] = float64(res.attempted-res.failed) / float64(res.attempted)
	e["write_p50_ms"] = windowed(writeByPhase, 0.50)
	e["write_p90_ms"] = windowed(writeByPhase, 0.90)
	e["notify_p50_ms"] = windowed(notifyByPhase, 0.50)
	e["notify_p90_ms"] = windowed(notifyByPhase, 0.90)
	e["peak_rss_mb"] = peakRSSMiB()
	e["disk_bytes_per_user_byte"] = float64(disk) / userBytes

	l := res.layer
	delta := func(k string) float64 { return after.prom[k] - before.prom[k] }
	evalMs := 1e3 * ratio(delta("videodb_query_duration_seconds_sum"), delta("videodb_query_duration_seconds_count"))
	waitMs := 1e3 * ratio(delta("videodb_admission_queue_wait_seconds_sum"), delta("videodb_admission_queue_wait_seconds_count"))
	l["server.eval_ms_mean"] = evalMs
	l["server.admission_wait_ms_mean"] = waitMs
	l["server.wire_ms_mean"] = mean(wireMs) - evalMs - waitMs
	l["server.response_bytes_per_read"] = bytesRead / float64(readOK)
	l["server.admission_rejected"] = delta("videodb_admission_rejected_total")
	l["core.plancache_hit_ratio"] = ratio(float64(after.plan.Hits-before.plan.Hits),
		float64(after.plan.Hits-before.plan.Hits+after.plan.Misses-before.plan.Misses))
	l["core.notify_ms_p50"] = percentile(coreNotify, 0.50)
	l["datalog.rounds_per_query"] = rounds / float64(readOK)
	l["datalog.derived_per_query"] = derived / float64(readOK)
	l["constraint.solver_steps_per_query"] = steps / float64(readOK)
	l["constraint.memo_hit_ratio"] = ratio(memoHits, memoHits+memoMisses)
	l["constraint.memo_flushes"] = float64(after.memo.Flushes - before.memo.Flushes)
	bs0, bs1 := before.backend, after.backend
	l["segment.cache_hit_ratio"] = ratio(float64(bs1.CacheHits-bs0.CacheHits),
		float64(bs1.CacheHits-bs0.CacheHits+bs1.CacheMisses-bs0.CacheMisses))
	l["segment.cache_misses_per_read"] = float64(bs1.CacheMisses-bs0.CacheMisses) / float64(readOK)
	l["segment.cache_evictions"] = float64(bs1.CacheEvictions - bs0.CacheEvictions)
	l["segment.flushes"] = float64(bs1.Flushes - bs0.Flushes)
	l["segment.compactions"] = float64(bs1.Compactions - bs0.Compactions)
	l["segment.read_errors"] = float64(bs1.ReadErrors - bs0.ReadErrors)
	l["store.reopen_s"] = reopen
	done := float64(len(readLat) + len(writeLat))
	l["go.alloc_bytes_per_op"] = (after.rt[0] - before.rt[0]) / done
	l["go.allocs_per_op"] = (after.rt[1] - before.rt[1]) / done
	l["go.gc_cpu_fraction"] = ratio(after.rt[2]-before.rt[2], after.rt[3]-before.rt[3])
	l["loadgen.lag_p95_ms"] = percentile(lag, 0.95)
	l["loadgen.read_p99_ms"] = percentile(readLat, 0.99)
	l["loadgen.write_p99_ms"] = percentile(writeLat, 0.99)
	if tr != nil {
		self := tr.selfTimes()
		for _, layer := range []string{"loadgen", "server", "parser", "core", "store", "constraint"} {
			l["trace.self_ms."+layer] = self[layer]
		}
		tr.mu.Lock()
		res.spans = tr.spans
		tr.mu.Unlock()
	}
	fmt.Fprintf(os.Stderr, "perfbench: pass traced=%v: %d ops, %d failed, read p50 %.2f ms p90 %.2f ms, write p50 %.2f ms, notify p50 %.2f ms, %.1f ok/s, setup %.3f s\n",
		traced, res.attempted, res.failed, e["read_p50_ms"], e["read_p90_ms"], e["write_p50_ms"], e["notify_p50_ms"], e["ok_per_s"], e["setup_s"])
	return res, nil
}

// tally counts attempted, failed and wrong operations, keeping the first
// few failures.
func (res *passResult) tally(ops []*op) {
	for _, o := range ops {
		res.attempted++
		if o.err == nil {
			continue
		}
		res.failed++
		if o.wrong {
			res.wrong++
		}
		if len(res.failures) < 5 {
			res.failures = append(res.failures, o.err.Error())
		}
	}
}

// verifyDurable marks every acknowledged batch whose object or facts are
// missing from the reopened store as failed. Each relation a batch writes
// is scanned once, bound on the arguments all its facts share (the batch's
// own oid), since a scan per fact is slow on a store that misses its cache.
func verifyDurable(db *core.DB, c *corpus, ops []*op) {
	st := db.Store()
	for _, o := range ops {
		if o.kind != opWrite || o.err != nil {
			continue
		}
		b := c.live[o.batch]
		missing := 0
		if b.object && db.Object(object.OID(b.oid)) == nil {
			missing++
		}
		byRel := map[string][]store.Fact{}
		for _, f := range b.facts {
			byRel[f.Name] = append(byRel[f.Name], f)
		}
		for rel, facts := range byRel {
			var binds []store.ArgBind
			for pos, v := range facts[0].Args {
				shared := true
				for _, f := range facts[1:] {
					shared = shared && f.Args[pos].Equal(v)
				}
				if shared {
					binds = append(binds, store.ArgBind{Pos: pos, Val: v})
				}
			}
			want := map[string]bool{}
			for _, f := range facts {
				want[rowKey(f.Args...)] = true
			}
			st.ScanFacts(rel, binds, func(f store.Fact) bool {
				delete(want, rowKey(f.Args...))
				return len(want) > 0
			})
			missing += len(want)
		}
		if missing > 0 {
			o.err = fmt.Errorf("batch %s: %d acknowledged objects or facts missing after reopen", b.oid, missing)
			o.wrong = true
		}
	}
}

// checkRacingReads checks the reads that ran beside writes: the answer
// must lie between the archive plus the batches acknowledged before the
// read was sent and the archive plus the batches sent before it returned.
func checkRacingReads(c *corpus, ops []*op) {
	var writes []*op
	for _, o := range ops {
		if o.kind == opWrite {
			writes = append(writes, o)
		}
	}
	for _, o := range ops {
		if !o.racing || o.err != nil {
			continue
		}
		lower := append([]shotRec(nil), c.shots...)
		upper := append([]shotRec(nil), c.shots...)
		for _, wo := range writes {
			s := c.live[wo.batch].shot
			if wo.status == 200 && wo.done.Before(o.sent) {
				lower = append(lower, s)
			}
			if !wo.sent.IsZero() && wo.sent.Before(o.done) {
				upper = append(upper, s)
			}
		}
		t := templates[o.q.tmpl]
		if err := checkBetween(o.resp.Columns, o.rows, t.cols, t.truth(c, *o.q, lower), t.truth(c, *o.q, upper)); err != nil {
			o.err = fmt.Errorf("%s: %w", o.q.text, err)
			o.wrong = true
		}
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// peakRSSMiB reads the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// Windowed percentiles: each phase's samples, in schedule order, are cut
// into consecutive windows of at least minWindow samples (at most
// maxWindows); the metric is the median of the windows' percentiles, so a
// burst of noise on the host moves one window, not the result.
const (
	minWindow  = 100
	maxWindows = 5
)

func windowed(groups [][]float64, p float64) float64 {
	var per []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		k := len(g) / minWindow
		if k < 1 {
			k = 1
		}
		if k > maxWindows {
			k = maxWindows
		}
		for i := 0; i < k; i++ {
			per = append(per, percentile(g[i*len(g)/k:(i+1)*len(g)/k], p))
		}
	}
	if len(per) == 0 {
		return 0
	}
	return median(per)
}

// percentile is the nearest-rank percentile; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// writeTrace writes the traced pass's spans and tables next to the build.
func writeTrace(out, name string, seed int64, dur time.Duration, c *corpus, plain, tr *passResult) error {
	doc := map[string]interface{}{
		"workload":         name,
		"seed":             seed,
		"seconds":          dur.Seconds(),
		"corpus_vql_bytes": len(c.script),
		"untraced":         plain.e2e,
		"traced":           tr.e2e,
		"layers":           tr.layer,
		"templates":        tr.tables,
		"failures":         append(plain.failures, tr.failures...),
		"spans":            tr.spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", name, seed)), data, 0o644)
}
