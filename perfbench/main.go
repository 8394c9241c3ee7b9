// Command perfbench is the repository benchmark. It runs one named workload
// against the public API over loopback graph shards (or an in-memory
// platform), checks the outputs, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a separate traced pass, as the last line
// of standard output in one JSON object.
//
//	perfbench -workload sample-wire -seed 1 -seconds 10 -trace 0
//
// Every workload is set up setupReps times and set-up time is the median;
// the last set-up is measured (with -trace 1 the last two: untraced, then
// traced). See README.md for the workloads and the metric mapping.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// tailMax caps the percentile latency_ms_tail reports; below it the tail
// is the highest percentile with ten samples beyond it. p99 is printed in
// the report; across seeds it spread by 0.4 to 0.6 of its median on
// sample-wire and serve-open, where p90 spread by about 0.1: p99 there is
// set by a few collector and host stalls.
const tailMax = 0.9

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// traceDir holds the span files of traced runs, inside the checkout.
const traceDir = ".bench_build/perfbench-traces"

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints, in BENCHMARK.json
// order. What an "op" is depends on the workload (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// gate is one correctness check.
type gate struct {
	name   string
	ok     bool
	detail string
}

// pass is the outcome of one measured pass of a workload.
type pass struct {
	attempted, failed int
	win               windowResult

	throughput float64   // ops (edges for training) per second
	p50, tail  float64   // ms
	tailQ      float64   // the percentile tail reports
	parts      int       // > 1: p50 and tail are medians over this many parts of lat
	lat        []float64 // every op's latency, ms; +Inf when it failed
	cpuPerOp   float64   // ms

	layer  map[string]float64
	report []string
	gates  []gate
	losses []float64
}

// closedLoop sets the metrics of a closed loop that completed ok ops over
// the window from the window and every op's latency: throughput in units
// of perOp per op, the p50, the tail at the highest percentile up to
// tailMax with ten samples beyond it, and CPU per op.
func (p *pass) closedLoop(ok int, perOp float64) {
	p.throughput = float64(ok) * perOp / p.win.elapsed.Seconds()
	p.tailQ = tailQuantile(len(p.lat), tailMax)
	p.p50 = quantile(append([]float64(nil), p.lat...), 0.5)
	p.tail = quantile(append([]float64(nil), p.lat...), p.tailQ)
	p.cpuPerOp = ms(float64(p.win.cpu)) / float64(ok)
}

func (p *pass) gate(name string, ok bool, detail string) {
	p.gates = append(p.gates, gate{name, ok, detail})
}

func (p *pass) reportf(format string, args ...any) {
	p.report = append(p.report, fmt.Sprintf(format, args...))
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// run measures for the given duration; with tr set it also fills the
	// pass's per-layer metrics.
	run(d time.Duration, tr *tracer) (*pass, error)
	Close() error
}

type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (instance, phases, error)
}

var workloads = []workload{
	{"train-wire", setupTrainWire},
	{"sample-wire", setupSampleWire},
	{"serve-open", setupServeOpen},
	{"train-local", setupTrainLocal},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "1 = print per-layer metrics from a traced pass")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, ok, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	fmt.Println(out)
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// run sets the workload up setupReps times, measures, prints the human
// report and returns the result line and whether every gate passed.
func run(wl *workload, seed int64, d time.Duration, trace bool) (string, bool, error) {
	var (
		setups          []float64
		plain, traced   *pass
		tracedPh        phases
		tr              *tracer
		steal           int64
		stealKnown      = true
		untracedMeasure = setupReps - 1
	)
	if trace {
		untracedMeasure = setupReps - 2
	}
	for i := 0; i < setupReps; i++ {
		var t *tracer
		if trace && i == setupReps-1 {
			t = newTracer()
			tr = t
		}
		inst, ph, err := wl.setup(seed, t)
		if err != nil {
			return "", false, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, ph.total().Seconds())
		var p *pass
		if i == untracedMeasure || t != nil {
			p, err = inst.run(d, t)
		}
		if cerr := inst.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
		if err != nil {
			return "", false, err
		}
		if p != nil {
			if p.win.steal < 0 {
				stealKnown = false
			}
			steal += p.win.steal
		}
		if i == untracedMeasure {
			plain = p
		}
		if t != nil {
			traced, tracedPh = p, ph
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	if !stealKnown {
		steal = -1
	}

	gates := append([]gate(nil), plain.gates...)
	if traced != nil {
		for _, g := range traced.gates {
			g.name += " (traced)"
			gates = append(gates, g)
		}
		if plain.losses != nil {
			gates = append(gates, lossIdentityGate(plain.losses, traced.losses))
		}
	}

	stamp := envStamp(wl.name, seed, steal)
	fmt.Printf("# env %s\n", stamp)
	fmt.Printf("# %s: setup_s median of %d = %.3f s %v\n", wl.name, len(setups), median(append([]float64(nil), setups...)), setups)
	fmt.Printf("# rss_mb %.1f MB after the window; peak_rss_mb %.1f MB, the process's peak over every set-up and pass\n", plain.win.heldRSS, peakRSSMB())
	for _, line := range plain.report {
		fmt.Printf("# %s\n", line)
	}
	ok := true
	for _, g := range gates {
		status := "pass"
		if !g.ok {
			status, ok = "FAIL", false
			fmt.Fprintf(os.Stderr, "perfbench: gate %s failed: %s\n", g.name, g.detail)
		}
		fmt.Printf("# gate %s: %s %s\n", g.name, status, g.detail)
	}

	res := jsonResult{Correct: ok, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]jsonMetric{}}
	if !trace {
		vals := map[string]float64{
			"setup_s":          median(setups),
			"rss_mb":           plain.win.heldRSS,
			"throughput_per_s": plain.throughput,
			"latency_ms_p50":   plain.p50,
			"latency_ms_tail":  plain.tail,
			"cpu_ms_per_op":    plain.cpuPerOp,
		}
		if n := len(plain.lat) / max(1, plain.parts); plain.parts > 1 {
			fmt.Printf("# latency_ms_p50 and latency_ms_tail are medians over %d parts of each part's p50 and p%g (%d samples, %d beyond p%g)\n",
				plain.parts, plain.tailQ*100, n, beyond(n, plain.tailQ), plain.tailQ*100)
		} else {
			fmt.Printf("# latency_ms_p50 and latency_ms_tail are p50 and p%g of %d samples (%d beyond p%g)\n",
				plain.tailQ*100, n, beyond(n, plain.tailQ), plain.tailQ*100)
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = jsonMetric{vals[m.name], m.unit}
		}
	} else {
		for _, line := range traced.report {
			fmt.Printf("# traced: %s\n", line)
		}
		layer := traced.layer
		layer["setup.graph_s"] = tracedPh.graph.Seconds()
		layer["setup.partition_s"] = tracedPh.partition.Seconds()
		layer["setup.shards_s"] = tracedPh.shards.Seconds()
		layer["setup.connect_s"] = tracedPh.connect.Seconds()
		layer["setup.warmup_s"] = tracedPh.warmup.Seconds()
		layer["trace.overhead_ratio"] = traced.cpuPerOp / plain.cpuPerOp
		for _, m := range perLayer() {
			res.Metrics[m.name] = jsonMetric{layer[m.name], m.unit}
		}
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
		if err != nil {
			return "", false, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans: %s\n", path)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", false, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", false, err
	}
	return string(b), ok, nil
}

// lossIdentityGate checks that tracing moved no random draw: the loss
// vectors of the untraced and traced passes agree bit for bit over the
// steps both ran.
func lossIdentityGate(a, b []float64) gate {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return gate{"train.loss_identical_traced", false, fmt.Sprintf("step %d: %v untraced, %v traced", i, a[i], b[i])}
		}
	}
	if n == 0 {
		return gate{"train.loss_identical_traced", false, "no steps to compare"}
	}
	return gate{"train.loss_identical_traced", true, fmt.Sprintf("%d steps", n)}
}

// envStamp identifies the conditions of a run: host parallelism, toolchain,
// code version and the guest steal ticks seen during the measured windows
// (-1 when /proc/stat is unreadable).
func envStamp(name string, seed, steal int64) string {
	b, _ := json.Marshal(map[string]any{ // a map of plain values always marshals
		"workload":    name,
		"seed":        seed,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      gitCommit(),
		"source":      sourceDigest("."),
		"steal_ticks": steal,
	})
	return string(b)
}

// gitCommit is the commit checked out in the current directory, or "none"
// where there is no git metadata or no git. --git-dir keeps git from
// searching the parent directories.
func gitCommit() string {
	out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories; it identifies the code of a checkout exported without
// git metadata, where gitCommit is "none".
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
