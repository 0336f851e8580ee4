// Command perfbench is radiv's end-to-end query benchmark. It feeds
// generated database and query text through the public query path —
// rel.ReadText, parser.ParseRA (or ParseSA then sa.ToRA), plan.Compile,
// (*plan.Plan).Execute, fmt.Fprint of the result — checks every output
// against an oracle, and prints one JSON result line last.
//
//	perfbench --workload divide-bulk --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs half the time untraced and half traced, and reports the
// per-layer metrics from the traced half; the spans are written to
// .bench_build/spans/<workload>-<seed>.jsonl. See README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"divide-bulk":   runDivideBulk,
	"adhoc-small":   runAdhocSmall,
	"ingest-divide": runIngestDivide,
}

// tailQuantile is each workload's fixed tail percentile: the highest
// of p90/p99/p99.9 that leaves at least ten samples beyond it at the
// workload's usual query count. divide-bulk and ingest-divide run too
// few queries for any of them; they report p90, and the sample count
// beyond it is printed beside the value.
var tailQuantile = map[string]float64{
	"divide-bulk":   0.90,
	"adhoc-small":   0.99,
	"ingest-divide": 0.90,
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: divide-bulk, adhoc-small or ingest-divide")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 15, "measured loop duration in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	wall := time.Now()
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	env := newEnvironment(*name, *seed, *seconds, cfg.traced)
	if env.GomaxprocsOver {
		fmt.Printf("WARNING: GOMAXPROCS=%d exceeds nproc=%d; timings are not comparable\n", env.GOMAXPROCS, env.Nproc)
	}
	b := newBench(cfg)
	if err := runner(b); err != nil {
		return err
	}
	if b.rssErr != nil {
		return fmt.Errorf("peak RSS: %w", b.rssErr)
	}
	env.Sizes = b.sizes
	env.InputDigest = hexDigest(b.input)
	env.QueryDigest = queryDigest(b.qs)
	env.PlanOptions = fmt.Sprintf("%+v", planOptions)
	env.StealFrac = b.stealFrac
	env.BenchmarkDuration = time.Since(wall).Seconds()

	var vals map[string]metric
	if cfg.traced {
		vals = b.layerMetrics()
		fmt.Print(b.spans.layerTable())
		path := fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *name, *seed)
		if err := b.spans.write(path, env); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans %d written to %s\n", len(b.spans.spans), path)
	} else {
		vals = b.endToEnd()
	}
	b.report(env, vals)
	line, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: vals})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd computes the untraced run's metrics.
func (b *bench) endToEnd() map[string]metric {
	setup := make([]time.Duration, len(b.loadTimes))
	for i := range setup {
		setup[i] = b.loadTimes[i] + b.buildTimes[i]
	}
	lat := durations(b.queryLat, ms)
	tail, _ := percentile(lat, tailQuantile[b.cfg.workload])
	q := float64(max(b.queries, 1))
	return map[string]metric{
		"setup_s":            {median(durations(setup, secs)), "s"},
		"query_p50_ms":       {median(lat), "ms"},
		"query_tail_ms":      {tail, "ms"},
		"queries_per_s":      {float64(b.queries) / b.elapsed.Seconds(), "1/s"},
		"alloc_mb_per_query": {b.loopRuntime.allocBytes / (1 << 20) / q, "MB"},
		"peak_rss_mb":        {median(b.rssPeaks), "MB"},
	}
}

// layerMetrics computes the traced run's per-layer metrics. A layer the
// workload never calls reports 0.
func (b *bench) layerMetrics() map[string]metric {
	self := b.spans.layerSelf()
	med := func(name string, unit func(time.Duration) float64) float64 {
		return median(durations(self[name], unit))
	}
	q := float64(max(b.queries, 1))
	f := b.flow
	per := func(x float64) float64 {
		if f.weight == 0 {
			return 0
		}
		return x / f.weight
	}
	overhead := 0.0
	if base := median(durations(b.baseLat, ms)); base > 0 {
		overhead = median(durations(b.queryLat, ms))/base - 1
	}
	gcFrac := 0.0
	if b.loopRuntime.totalCPU > 0 {
		gcFrac = b.loopRuntime.gcCPU / b.loopRuntime.totalCPU
	}
	return map[string]metric{
		"parser.parse_us":            {med("parser.parse", us), "us"},
		"plan.compile_us":            {med("plan.compile", us), "us"},
		"plan.firings":               {mean(b.firings), "count/query"},
		"executor.execute_ms":        {med("executor.execute", ms), "ms"},
		"executor.alloc_mb":          {mean(b.execAlloc) / (1 << 20), "MB/query"},
		"executor.flow_tuples":       {per(f.flowTuples), "count/query"},
		"executor.max_intermediate":  {per(f.maxIntermediate), "count/query"},
		"executor.max_resident":      {per(f.maxResident), "count/query"},
		"executor.flow_per_out_row":  {f.flowTuples / max(f.out, 1), "ratio"},
		"rel.batches_alloc":          {float64(b.batchAllocs) / q, "count/query"},
		"runtime.gc_cpu_frac":        {gcFrac, "ratio"},
		"runtime.gc_cycles":          {b.loopRuntime.gcCycles / q, "count/query"},
		"rel.format_us":              {med("rel.format", us), "us"},
		"rel.out_rows":               {mean(b.outRows), "count/query"},
		"rel.batch_read_us":          {med("rel.read", us), "us"},
		"rel.add_ms":                 {med("rel.add", ms), "ms"},
		"rel.publish_us":             {med("rel.publish", us), "us"},
		"ingest.write_p50_ms":        {median(durations(b.writeLat, ms)), "ms"},
		"ingest.rows_per_s":          {float64(b.rowsWritten) / b.elapsed.Seconds(), "1/s"},
		"shard.divide_ms":            {median(durations(b.shard.divide, ms)), "ms"},
		"shard.merge_ms":             {median(durations(b.shard.merge, ms)), "ms"},
		"shard.resident_max":         {median(b.shard.resident), "count"},
		"rel.load_s":                 {median(durations(b.loadTimes, secs)), "s"},
		"rel.store_build_s":          {median(durations(b.buildTimes, secs)), "s"},
		"trace.query_uncovered_frac": {b.spans.uncovered("query"), "ratio"},
		"trace.write_uncovered_frac": {b.spans.uncovered("write"), "ratio"},
		"trace.overhead_frac":        {overhead, "ratio"},
	}
}

// report prints the human-readable lines: the environment record,
// every metric with its unit, the tail percentile's sample counts, the
// failure tally, and per query template the engines the plans bound
// and the latencies.
func (b *bench) report(env environment, vals map[string]metric) {
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %14.4f %s\n", n, vals[n].Value, vals[n].Unit)
	}
	lat := durations(b.queryLat, ms)
	qt := tailQuantile[b.cfg.workload]
	_, beyond := percentile(lat, qt)
	fmt.Printf("query_tail: p%g of %d queries, %d samples beyond\n", qt*100, len(lat), beyond)
	if b.cfg.workload == "ingest-divide" && !b.cfg.traced {
		fmt.Printf("metric %-30s %14.4f %s\n", "write_p50_ms", median(durations(b.writeLat, ms)), "ms")
		fmt.Printf("metric %-30s %14.4f %s\n", "ingest_rows_per_s", float64(b.rowsWritten)/b.elapsed.Seconds(), "1/s")
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("metric %-30s %14.4f %s  (%d of %d operations)\n", "failed_frac", frac, "ratio", b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Printf("failure: %s\n", f)
	}
	fmt.Printf("setup: load %v build %v\n", b.loadTimes, b.buildTimes)
	fmt.Printf("peak_rss_mb per loop segment: %.1f\n", b.rssPeaks)
	templates := make([]string, 0, len(b.byTemplate))
	for t := range b.byTemplate {
		templates = append(templates, t)
	}
	sort.Strings(templates)
	for _, t := range templates {
		ts := b.byTemplate[t]
		lat := durations(ts.lat, ms)
		p99, _ := percentile(lat, 0.99)
		fmt.Printf("template %-18s engines=%v n=%d p50=%.3fms p99=%.3fms\n", t, ts.engines, len(lat), median(lat), p99)
	}
}
