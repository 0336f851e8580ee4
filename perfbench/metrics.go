package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// how many samples lie strictly above its rank.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
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
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ms, us and secs convert durations to float units.
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func us(d time.Duration) float64   { return float64(d) / 1e3 }
func secs(d time.Duration) float64 { return d.Seconds() }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// runtimeSample holds cumulative runtime counters.
type runtimeSample struct {
	allocBytes float64 // heap bytes allocated
	gcCycles   float64 // completed GC cycles
	gcCPU      float64 // CPU seconds spent in GC
	totalCPU   float64 // CPU seconds available to the process
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the runtime's cumulative counters without
// stopping the world.
func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		ss[i].Name = name
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// restartPeakRSS restarts the peak resident set (VmHWM) from the
// current resident set.
func restartPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTicks returns the machine's cumulative steal ticks and total
// ticks from /proc/stat: on a virtual machine, steal is time the host
// ran something else while this machine's CPUs wanted to run.
func cpuTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// environment is the record printed with every result.
type environment struct {
	Workload          string         `json:"workload"`
	Seed              int64          `json:"seed"`
	Seconds           int            `json:"seconds"`
	Trace             bool           `json:"trace"`
	Nproc             int            `json:"nproc"`
	GOMAXPROCS        int            `json:"gomaxprocs"`
	GomaxprocsOver    bool           `json:"gomaxprocs_above_nproc"`
	GoVersion         string         `json:"go_version"`
	CPUModel          string         `json:"cpu_model"`
	Commit            string         `json:"commit"`
	SourceDigest      string         `json:"source_sha256"`
	Sizes             map[string]int `json:"sizes"`
	InputDigest       string         `json:"input_sha256"`
	QueryDigest       string         `json:"query_sha256"`
	PlanOptions       string         `json:"plan_options"`
	StealFrac         float64        `json:"cpu_steal_frac"`
	BenchmarkDuration float64        `json:"benchmark_wall_s,omitempty"`
}

func newEnvironment(workload string, seed int64, seconds int, traced bool) environment {
	env := environment{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Sizes:      map[string]int{},
	}
	env.GomaxprocsOver = env.GOMAXPROCS > env.Nproc
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	env.SourceDigest = sourceDigest(".")
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the module's Go sources and go.mod files
// under root. It identifies the code under test when the build has no
// version-control stamp.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hexDigest(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// queryDigest digests a query sequence.
func queryDigest(qs []query) string {
	var b bytes.Buffer
	for _, q := range qs {
		b.WriteString(q.text)
		b.WriteByte('\n')
	}
	return hexDigest(b.Bytes())
}
