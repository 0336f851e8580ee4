package main

// The three workloads. Each is a closed loop with one client: the next
// operation starts only when the previous one has returned. Every
// operation's output is checked against an oracle outside the timed
// region.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"radiv/internal/division"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/shard"
)

// planOptions compiles every query: the rewrite planner on, vectorized
// execution, and two workers for the sharded division fast path.
var planOptions = plan.Options{Optimize: true, Vectorize: true, Workers: 2}

// Setup repetitions per run; setup_s reports their median.
const (
	bulkSetupReps  = 3
	adhocSetupReps = 31
)

// rssSegments is how many segments of the measured loop report a peak
// resident set each; peak_rss_mb is their median.
const rssSegments = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// bench accumulates one run's measurements.
type bench struct {
	cfg config
	// tr is the active span recorder; nil while untraced.
	tr *tracer
	// spans keeps the recorder across untraced phases of a traced run.
	spans *tracer

	queryLat []time.Duration
	writeLat []time.Duration
	// baseLat holds the untraced half of a traced run, the reference
	// for the tracing overhead.
	baseLat []time.Duration
	// byTemplate collects each template's bound engines and latencies.
	byTemplate map[string]*templateStats

	attempted, failed int
	failures          []string

	loadTimes, buildTimes []time.Duration
	rssPeaks              []float64 // MB, one per loop segment
	rssErr                error

	// Traced-run counters.
	execAlloc []float64 // bytes allocated per Execute
	firings   []float64 // rule firings per compile
	outRows   []float64 // result rows per query
	flow      flowStats
	shard     shardStats

	// opsDone and elapsed describe the measured loop; loopRuntime is
	// its runtime counter delta.
	opsDone, queries int
	rowsWritten      int
	elapsed          time.Duration
	loopRuntime      runtimeSample
	batchAllocs      int64
	stealFrac        float64 // machine CPU time stolen by the host

	sizes map[string]int
	input []byte
	qs    []query

	out bytes.Buffer
}

// flowStats are the executor's work counts from ExecuteTraced, weighted
// by how often each distinct query ran in the traced loop.
type flowStats struct {
	weight                                        float64
	flowTuples, maxIntermediate, maxResident, out float64
}

// templateStats describes one query template's runs.
type templateStats struct {
	engines map[plan.Engine]bool
	lat     []time.Duration
}

// shardStats are the shard fast path's figures from shard.Divide.
type shardStats struct {
	divide, merge []time.Duration
	resident      []float64
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, sizes: map[string]int{}}
	b.resetCounts()
	if cfg.traced {
		b.spans = newTracer()
		b.tr = b.spans
	}
	return b
}

// resetCounts drops the query counts and latencies gathered so far.
func (b *bench) resetCounts() {
	b.baseLat, b.queryLat, b.queries = nil, nil, 0
	b.byTemplate = map[string]*templateStats{}
}

// fail records a failed operation.
func (b *bench) fail(err error) {
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, err.Error())
	}
}

// check tallies one attempted query. It fails on err, on output whose
// digest differs from want, and on pooled batches left live.
func (b *bench) check(out []byte, want digest, liveBefore int64, err error) bool {
	b.attempted++
	if err == nil {
		if live, _, _ := rel.BatchPoolStats(); live > liveBefore {
			err = fmt.Errorf("%d pooled batches left live", live-liveBefore)
		} else if sha256.Sum256(out) != want {
			err = errors.New("output digest differs from the oracle's")
		}
	}
	if err != nil {
		b.fail(err)
		return false
	}
	return true
}

// query sends one query text through the public path — parse (and
// sa.ToRA for SA text), plan.Compile, Execute, and fmt.Fprint of the
// result as raquery prints it — and returns the printed result, valid
// until the next call. The latency covers exactly that path.
func (b *bench) query(q query, store rel.ReadStore, op int) (out []byte, p *plan.Plan, err error) {
	tr := b.tr
	start := time.Now()
	root := tr.begin("query", -1, op)
	defer func() {
		if err != nil {
			tr.end(root)
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	sp := tr.begin("parser.parse", root, op)
	e, err := parseQuery(q, store.Schema())
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("plan.compile", root, op)
	p, err = plan.Compile(e, store, planOptions)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("executor.execute", root, op)
	var before runtimeSample
	if tr != nil {
		before = readRuntime()
	}
	res := p.Execute()
	if tr != nil {
		b.execAlloc = append(b.execAlloc, readRuntime().sub(before).allocBytes)
	}
	tr.end(sp)
	sp = tr.begin("rel.format", root, op)
	b.out.Reset()
	fmt.Fprint(&b.out, res)
	tr.end(sp)
	tr.end(root)
	lat := time.Since(start)
	if tr != nil {
		b.firings = append(b.firings, float64(len(p.Firings())))
		b.outRows = append(b.outRows, float64(res.Len()))
		b.queryLat = append(b.queryLat, lat)
	} else if b.cfg.traced {
		b.baseLat = append(b.baseLat, lat)
	} else {
		b.queryLat = append(b.queryLat, lat)
	}
	ts := b.byTemplate[q.template]
	if ts == nil {
		ts = &templateStats{engines: map[plan.Engine]bool{}}
		b.byTemplate[q.template] = ts
	}
	ts.engines[p.Engine()] = true
	ts.lat = append(ts.lat, lat)
	b.queries++
	return b.out.Bytes(), p, nil
}

// runQuery runs and checks one query.
func (b *bench) runQuery(q query, store rel.ReadStore, want digest, op int) {
	live, _, _ := rel.BatchPoolStats()
	out, _, err := b.query(q, store, op)
	b.check(out, want, live, err)
}

// setup loads the database text and builds the store reps times,
// keeping the last build. Earlier builds are dropped and collected
// before the next, so their memory does not stack.
func (b *bench) setup(text []byte, reps int, build func(*rel.Database) rel.ReadStore) (rel.ReadStore, error) {
	var store rel.ReadStore
	for i := 0; i < reps; i++ {
		store = nil
		runtime.GC()
		root := b.tr.begin("setup", -1, i)
		start := time.Now()
		sp := b.tr.begin("rel.load", root, i)
		db, err := rel.ReadText(bytes.NewReader(text))
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		loaded := time.Now()
		sp = b.tr.begin("rel.store_build", root, i)
		store = build(db)
		b.tr.end(sp)
		b.tr.end(root)
		b.loadTimes = append(b.loadTimes, loaded.Sub(start))
		b.buildTimes = append(b.buildTimes, time.Since(loaded))
	}
	b.sizes["store_tuples"] = store.Size()
	runtime.GC()
	return store, nil
}

// epochStore publishes the loaded database through an epoch writer
// and serves its snapshot.
func epochStore(db *rel.Database) rel.ReadStore { return rel.EpochFromStore(db).Snapshot() }

// measure runs op in a closed loop for the configured time. A traced
// run spends the first half untraced, as the reference for the tracing
// overhead, and the second half traced; the loop's counters cover the
// traced half.
func (b *bench) measure(op func(i int)) {
	d := b.cfg.seconds
	i := 0
	if b.cfg.traced {
		d /= 2
		b.tr = nil
		for start := time.Now(); time.Since(start) < d; i++ {
			op(i)
		}
		b.tr = b.spans
		b.queries = 0
		b.rowsWritten = 0
	}
	// The peak resident set is measured per segment of the loop, from
	// a reset at the segment's start, and reported as the median of
	// the segments' peaks; the first reset also drops set-up's peak.
	debug.FreeOSMemory()
	resetErr := restartPeakRSS()
	if resetErr != nil {
		fmt.Printf("WARNING: peak RSS cannot be reset, it includes set-up: %v\n", resetErr)
	}
	seg := d / rssSegments
	next := seg
	steal0, ticks0, stealErr := cpuTicks()
	liveRuntime := readRuntime()
	_, _, allocs0 := rel.BatchPoolStats()
	start := time.Now()
	n := 0
	for ; time.Since(start) < d; i++ {
		op(i)
		n++
		if el := time.Since(start); resetErr == nil && (el >= next || el >= d) {
			b.recordPeakRSS()
			resetErr = restartPeakRSS()
			for next <= el {
				next += seg
			}
		}
	}
	if resetErr != nil {
		b.recordPeakRSS()
	}
	b.elapsed = time.Since(start)
	b.opsDone = n
	b.loopRuntime = readRuntime().sub(liveRuntime)
	_, _, allocs1 := rel.BatchPoolStats()
	b.batchAllocs = allocs1 - allocs0
	if steal1, ticks1, err := cpuTicks(); stealErr == nil && err == nil && ticks1 > ticks0 {
		b.stealFrac = (steal1 - steal0) / (ticks1 - ticks0)
	}
}

// recordPeakRSS appends the peak resident set since the last reset.
func (b *bench) recordPeakRSS() {
	p, err := peakRSSMB()
	if err != nil {
		b.rssErr = err
		return
	}
	b.rssPeaks = append(b.rssPeaks, p)
}

// traceFlow runs ExecuteTraced once per distinct query of the traced
// loop and weights the work counts by how often each query ran. The
// results are checked like any other query.
func (b *bench) traceFlow(store rel.ReadStore, runs map[query]int, want func(query) digest) {
	for q, n := range runs {
		live, _, _ := rel.BatchPoolStats()
		var out []byte
		tr, err := func() (tr *plan.Trace, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			e, err := parseQuery(q, store.Schema())
			if err != nil {
				return nil, err
			}
			p, err := plan.Compile(e, store, planOptions)
			if err != nil {
				return nil, err
			}
			res, tr := p.ExecuteTraced()
			out = []byte(res.String())
			return tr, nil
		}()
		if !b.check(out, want(q), live, err) {
			continue
		}
		w := float64(n)
		rows := float64(bytes.Count(out, []byte("\n")))
		b.flow.weight += w
		b.flow.flowTuples += w * float64(tr.TotalTuples)
		b.flow.maxIntermediate += w * float64(tr.MaxIntermediate)
		b.flow.maxResident += w * float64(tr.MaxResident)
		b.flow.out += w * rows
	}
}

// parseQuery parses RA text, or SA text translated by sa.ToRA.
func parseQuery(q query, schema rel.Schema) (ra.Expr, error) {
	if q.sa {
		se, err := parser.ParseSA(q.text, schema)
		if err != nil {
			return nil, err
		}
		return sa.ToRA(se), nil
	}
	return parser.ParseRA(q.text, schema)
}

// runDivideBulk: the classical division text over the full-size
// division database, on an epoch snapshot.
func runDivideBulk(b *bench) error {
	w := bulkDivision(b.cfg.seed)
	b.input = divisionText(w)
	quotient, _, err := divisionOracle(b.input)
	if err != nil {
		return err
	}
	want := sha256.Sum256(appendUnary(nil, quotient))
	q := query{template: "division", text: divisionQuery}
	b.qs = []query{q}
	b.sizes["groups"] = w.Groups
	b.sizes["result_rows"] = len(quotient)
	store, err := b.setup(b.input, bulkSetupReps, epochStore)
	if err != nil {
		return err
	}
	b.measure(func(i int) { b.runQuery(q, store, want, i) })
	if b.cfg.traced {
		b.traceFlow(store, map[query]int{q: b.queries}, func(query) digest { return want })
	}
	return nil
}

// runAdhocSmall: thousands of short queries from the templates over a
// store that fits in cache, each checked against the reference
// evaluators' digest.
func runAdhocSmall(b *bench) error {
	b.input = adhocText(b.cfg.seed)
	b.qs = adhocQueryTexts(b.cfg.seed)
	store, err := b.setup(b.input, adhocSetupReps, epochStore)
	if err != nil {
		return err
	}
	uniq := distinct(b.qs)
	b.sizes["queries"] = len(b.qs)
	b.sizes["distinct_queries"] = len(uniq)
	b.sizes["templates"] = len(adhocTemplates)
	want := map[string]digest{}
	for _, q := range uniq {
		d, err := referenceDigest(q, store)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", q.text, err)
		}
		want[q.text] = d
	}
	// Warm-up: one untimed pass over the distinct queries, checked.
	tr := b.tr
	b.tr = nil
	for i, q := range uniq {
		b.runQuery(q, store, want[q.text], -1-i)
	}
	b.tr = tr
	b.resetCounts()
	runs := map[query]int{}
	b.measure(func(i int) {
		q := b.qs[i%len(b.qs)]
		if b.tr != nil {
			runs[q]++
		}
		b.runQuery(q, store, want[q.text], i)
	})
	if b.cfg.traced {
		b.traceFlow(store, runs, func(q query) digest { return want[q.text] })
	}
	return nil
}

// runIngestDivide: rounds of a 1000-row write batch, a Publish, and
// ingestReads runs of the division query on the new snapshot, over a
// two-shard database preloaded with divide-bulk's relations.
func runIngestDivide(b *bench) error {
	w := bulkDivision(b.cfg.seed)
	b.input = divisionText(w)
	quotient, divisor, err := divisionOracle(b.input)
	if err != nil {
		return err
	}
	q := query{template: "division", text: divisionQuery}
	b.qs = []query{q}
	b.sizes["groups"] = w.Groups
	b.sizes["shards"] = 2
	b.sizes["batch_rows"] = ingestGroups * ingestGroupSize
	b.sizes["queries_per_round"] = ingestReads
	st, err := b.setup(b.input, bulkSetupReps, func(db *rel.Database) rel.ReadStore { return shard.FromStore(db, 2) })
	if err != nil {
		return err
	}
	sdb := st.(*shard.Database)
	gen := newIngestGen(b.cfg.seed, w, divisor)
	expected := appendUnary(nil, quotient)
	var want digest
	var snap *shard.Snapshot
	b.measure(func(i int) {
		// Each round starts from a collected heap. Without this the
		// peak resident set depends on where the collector's cycle
		// falls against the write's per-epoch clone, and jumps by a
		// fifth between runs. The collection counts in the loop's
		// elapsed time, so queries_per_s still pays for it.
		runtime.GC()
		text, contain := gen.batch()
		if s := b.write(sdb, text, i); s != nil {
			snap = s
		}
		expected = appendUnary(expected, contain)
		want = sha256.Sum256(expected)
		for k := 0; k < ingestReads; k++ {
			b.runQuery(q, snap, want, i)
		}
		if b.tr != nil {
			b.shardProbe(snap, i)
		}
	})
	b.sizes["rounds"] = b.opsDone
	if b.cfg.traced {
		b.traceFlow(snap, map[query]int{q: b.queries}, func(query) digest { return want })
	}
	return nil
}

// write applies one write batch: rel.ReadText of the batch text, the
// rows added through the sharded writer, and Publish. It returns the
// published snapshot, or nil when the write failed.
func (b *bench) write(sdb *shard.Database, text []byte, op int) (snap *shard.Snapshot) {
	tr := b.tr
	b.attempted++
	start := time.Now()
	root := tr.begin("write", -1, op)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		sp := tr.begin("rel.read", root, op)
		batch, err := rel.ReadText(bytes.NewReader(text))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("rel.add", root, op)
		rel.CopyStore(sdb, batch)
		tr.end(sp)
		sp = tr.begin("rel.publish", root, op)
		snap = sdb.Publish()
		tr.end(sp)
		b.rowsWritten += batch.Size()
		return nil
	}()
	tr.end(root)
	if err != nil {
		b.fail(fmt.Errorf("write: %w", err))
		return nil
	}
	if tr != nil || !b.cfg.traced {
		b.writeLat = append(b.writeLat, time.Since(start))
	}
	return snap
}

// shardProbe times the sharded division fast path on its own, outside
// the query span, through shard.Divide.
func (b *bench) shardProbe(snap *shard.Snapshot, op int) {
	sp := b.tr.begin("shard.divide", -1, op)
	start := time.Now()
	_, st := shard.Divide(snap, "R", "S", division.Containment, planOptions.Workers)
	d := time.Since(start)
	b.tr.end(sp)
	b.shard.divide = append(b.shard.divide, d)
	b.shard.merge = append(b.shard.merge, st.MergeTime)
	maxRes := 0
	for _, r := range st.ShardResident {
		maxRes = max(maxRes, r)
	}
	b.shard.resident = append(b.shard.resident, float64(maxRes))
}
