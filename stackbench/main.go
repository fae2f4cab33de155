// Command stackbench is the stack benchmark for imemexd. It starts
// internal/server in-process on a loopback listener, with its default
// backend (wal) and fsync policy (on-commit), and drives it from the
// same process with one closed-loop client on one keep-alive
// connection. It checks every answer and prints every end-to-end
// metric by name with its unit; with -trace 1 it also replays each
// request against a mirror set of tenants through the library and
// prints the per-layer metrics. See README.md for the workloads, the
// metric catalog and how to compare two commits.
//
// Usage (from the repository root):
//
//	bash stackbench/run.sh [-workload all|search|tenant-churn|ingest]
//	    [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed the benchmark runs with unless told
// otherwise; heldOutSeed is kept out of development runs, so a claim
// can be re-checked on a seed it was not tuned on (README.md).
const (
	defaultSeed = 1
	heldOutSeed = 104729
)

var workloadNames = []string{"search", "tenant-churn", "ingest"}

// options configure one invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	work    string
	sz      sizes
}

// sizes are the workload dimensions; tiny ones serve the self-tests.
type sizes struct {
	setupReps    int
	searchScale  float64
	poolKeywords int
	poolPaths    int
	churnTenants int
	churnMin     float64
	churnMax     float64
	ingestScale  float64
	ingestFiles  int
}

func fullSizes() sizes {
	return sizes{
		setupReps:   3,
		searchScale: 0.25, poolKeywords: 200, poolPaths: 200,
		churnTenants: 12, churnMin: 0.01, churnMax: 0.05,
		ingestScale: 0.02, ingestFiles: 100,
	}
}

func tinySizes() sizes {
	return sizes{
		setupReps:   2,
		searchScale: 0.01, poolKeywords: 20, poolPaths: 20,
		churnTenants: 12, churnMin: 0.002, churnMax: 0.005,
		ingestScale: 0.005, ingestFiles: 12,
	}
}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "search":
		return &searchWorkload{scale: sz.searchScale, dataSeed: 42, nKeywords: sz.poolKeywords, nPaths: sz.poolPaths}, nil
	case "tenant-churn":
		return &churnWorkload{n: sz.churnTenants, minScale: sz.churnMin, maxScale: sz.churnMax}, nil
	case "ingest":
		return &ingestWorkload{scale: sz.ingestScale, dataSeed: 7, nFiles: sz.ingestFiles}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want all, %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload: all, "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run (a traced run splits them between its two phases)")
	trace := fs.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	work := fs.String("work", ".stackbench_work", "directory for data, results and spans")
	tiny := fs.Bool("tiny", false, "tiny datasets (self-tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "stackbench: -trace must be 0 or 1")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, sz: fullSizes()}
	if *tiny {
		opt.sz = tinySizes()
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if clients > runtime.NumCPU() {
		fmt.Fprintf(stderr, "stackbench: warning: %d clients exceed num_cpu %d; latencies include CPU queueing\n", clients, runtime.NumCPU())
	}
	var results []*result
	for _, name := range names {
		res, err := runWorkload(opt, name, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "stackbench: %s: %v\n", name, err)
			return 1
		}
		results = append(results, res)
	}
	last := results[0]
	if len(results) > 1 {
		last = combine(results)
	}
	line, err := json.Marshal(last.summary())
	if err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is one workload's outcome.
type result struct {
	workload  string
	attempted int64
	failed    int64
	errs      []string
	metrics   []metric // emitted in the summary line
	extra     []metric // printed only
	prov      provenance
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) summary() summary {
	s := summary{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		s.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return s
}

// combine merges the results of several workloads, prefixing each
// metric with its workload's name.
func combine(rs []*result) *result {
	out := &result{workload: "all"}
	for _, r := range rs {
		out.attempted += r.attempted
		out.failed += r.failed
		for _, m := range r.metrics {
			m.name = r.workload + "." + m.name
			out.metrics = append(out.metrics, m)
		}
	}
	return out
}

// endToEnd lists the end-to-end metrics in report order; BENCHMARK.json
// names the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_kb_per_req", "KB"},
	{"live_heap_mb", "MB"},
	{"store_amp", "ratio"},
}

// runWorkload sets the workload up, runs its phases and reports.
func runWorkload(opt options, name string, stdout io.Writer) (*result, error) {
	w, err := newWorkload(name, opt.sz)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(opt.work, fmt.Sprintf("run-%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{opt: opt, dir: dir}
	if err := w.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	d, first, err := b.setup(w, 0)
	if err != nil {
		return nil, err
	}
	defer d.shutdown()
	b.d = d
	res := &result{workload: name, prov: stamp(opt, name, w)}
	printProvenance(stdout, res.prov)
	if opt.trace {
		err = b.traced(w, res, stdout)
	} else {
		err = b.untraced(w, res, first)
	}
	if err != nil {
		return nil, err
	}
	if !opt.trace {
		for _, m := range append(append([]metric(nil), res.metrics...), res.extra...) {
			fmt.Fprintf(stdout, "%s %s %.6g %s (%s)\n", name, m.name, m.value, m.unit, m.base)
		}
	}
	for _, e := range res.errs {
		fmt.Fprintf(stdout, "%s error: %s\n", name, e)
	}
	if err := writeResult(opt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// untraced runs the timed phase and derives the end-to-end metrics;
// set-up is then repeated, so setup_s is a median.
func (b *bench) untraced(w workload, res *result, first time.Duration) error {
	ph := b.runPhase(w, nil)
	if err := b.checkpointAll(w); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	stored, content := w.stored()
	disk, err := b.d.tenantBytes(stored)
	if err != nil {
		return err
	}
	b.d.shutdown() // idempotent; runWorkload's deferred call is then a no-op
	more, err := b.resetup(w, b.opt.sz.setupReps)
	if err != nil {
		return err
	}
	setups := append([]time.Duration{first}, more...)
	res.attempted, res.failed, res.errs = ph.rec.attempted, ph.rec.failed, ph.rec.errs
	q, wr, op := ph.rec.lat[kindQuery], ph.rec.lat[kindWrite], ph.rec.lat[kindOp]
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	span := time.Duration(b.opt.seconds * float64(time.Second))
	answered := append(append(samples(nil), q...), wr...)
	answeredEnds := append(append([]time.Duration(nil), ph.rec.ends[kindQuery]...), ph.rec.ends[kindWrite]...)
	quantile := func(p float64) func(samples, time.Duration) float64 {
		return func(s samples, _ time.Duration) float64 { return s.quantile(p) }
	}
	rate := func(s samples, w time.Duration) float64 { return float64(len(s)) / w.Seconds() }
	win := func(n int, what string) string {
		return fmt.Sprintf("%d %s, median over %d windows", n, what, windowCount(n))
	}
	vals := map[string]metric{
		"setup_s":          {value: median(setupS), base: fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups))},
		"req_per_s":        {value: windowed(answered, answeredEnds, span, ph.elapsed, rate), base: win(len(answered), "answered requests")},
		"query_p50_ms":     {value: windowed(q, ph.rec.ends[kindQuery], span, ph.elapsed, quantile(0.5)), base: win(len(q), "queries")},
		"op_p50_ms":        {value: windowed(op, ph.rec.ends[kindOp], span, ph.elapsed, quantile(0.5)), base: win(len(op), "operations")},
		"op_p90_ms":        {value: windowed(op, ph.rec.ends[kindOp], span, ph.elapsed, quantile(0.9)), base: win(len(op), "operations")},
		"alloc_kb_per_req": {value: ratio(float64(ph.alloc)/1024, float64(ph.rec.attempted)), base: fmt.Sprintf("%d bytes allocated by the process over %d requests", ph.alloc, ph.rec.attempted)},
		"live_heap_mb":     {value: average(ph.liveHeap), base: fmt.Sprintf("mean of %d samples of the heap the last GC found live", len(ph.liveHeap))},
		"store_amp":        {value: ratio(float64(disk), float64(content)), base: fmt.Sprintf("%d bytes on disk of %d tenants after a final checkpoint over %d source content bytes", disk, len(stored), content)},
	}
	for _, e := range endToEnd {
		m := vals[e.name]
		m.name, m.unit = e.name, e.unit
		res.metrics = append(res.metrics, m)
	}
	whole := func(name string, s samples, p float64, what string) metric {
		return metric{name: name, unit: "ms", value: s.quantile(p), base: fmt.Sprintf("whole phase, n=%d %s", len(s), what)}
	}
	res.extra = append(res.extra,
		whole("query_p90_ms", q, 0.9, "queries"),
		whole("query_p99_ms", q, 0.99, "queries"),
		whole("op_p99_ms", op, 0.99, "operations"))
	res.extra = append(res.extra, metric{name: "error_ratio", unit: "ratio", value: ratio(float64(ph.rec.failed), float64(ph.rec.attempted)),
		base: fmt.Sprintf("%d failed, refused or wrong of %d attempted", ph.rec.failed, ph.rec.attempted)})
	if len(wr) > 0 {
		res.extra = append(res.extra, whole("write_p50_ms", wr, 0.5, "writes"), whole("write_p99_ms", wr, 0.99, "writes"))
	}
	return nil
}

// traced runs the operation sequence with every request traced and
// replayed against the mirror, then runs it again untraced on a fresh
// daemon as the baseline of trace.overhead_pct, and derives the
// per-layer metrics. Both phases start from a fresh set-up, like an
// untraced run: on ingest the daemon slows as add/delete cycles
// accumulate, so the mirror must share the daemon's history.
func (b *bench) traced(w workload, res *result, stdout io.Writer) error {
	b.mir = newMirror(filepath.Join(b.dir, "mirror"), w.maxOpen())
	defer b.mir.closeAll()
	if err := w.setupMirror(b); err != nil {
		return fmt.Errorf("mirror set-up: %w", err)
	}
	// The run's measured time is split between the two phases.
	b.opt.seconds /= 2
	tr := newTracer()
	ph := b.runPhase(w, tr)
	b.d.shutdown()
	d, _, err := b.setup(w, 1)
	if err != nil {
		return err
	}
	defer d.shutdown()
	b.d = d
	base := b.runPhase(w, nil)
	res.attempted = base.rec.attempted + ph.rec.attempted
	res.failed = base.rec.failed + ph.rec.failed
	res.errs = append(append([]string(nil), base.rec.errs...), ph.rec.errs...)
	disk, err := diskBytes(b.mir.root)
	if err != nil {
		return err
	}
	views := b.mir.views()
	res.metrics = layerReport(tr, base, ph, ratio(float64(disk), float64(views)),
		fmt.Sprintf("%d bytes under the mirror root over %d views of its tenants", disk, views))
	printLayers(stdout, res.workload, tr, res.metrics)
	if err := os.MkdirAll(filepath.Join(b.opt.work, "traces"), 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(b.opt.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", res.workload, b.opt.seed)))
}

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Millisecond)
	}
	return out
}

// provenance stamps every result with what produced it.
type provenance struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	HeldOut    int64     `json:"held_out_seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Clients    int       `json:"clients"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Backend    string    `json:"backend"`
	Fsync      string    `json:"fsync"`
	Scales     []float64 `json:"dataset_scales"`
	Commit     string    `json:"commit"`
}

func stamp(opt options, name string, w workload) provenance {
	return provenance{
		Workload: name, Seed: opt.seed, HeldOut: heldOutSeed, Seconds: opt.seconds, Trace: opt.trace,
		Clients: clients, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Backend: "wal", Fsync: "on-commit", Scales: w.scales(), Commit: commit(),
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

func printProvenance(w io.Writer, p provenance) {
	b, _ := json.Marshal(p)
	fmt.Fprintf(w, "%s provenance %s\n", p.Workload, b)
}

// writeResult saves the full result, provenance included, under the
// work directory.
func writeResult(opt options, r *result) error {
	dir := filepath.Join(opt.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type jm struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Base  string  `json:"base"`
	}
	var ms []jm
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		ms = append(ms, jm{m.name, m.value, m.unit, m.base})
	}
	out := struct {
		Provenance provenance `json:"provenance"`
		Attempted  int64      `json:"attempted"`
		Failed     int64      `json:"failed"`
		Errors     []string   `json:"errors"`
		Metrics    []jm       `json:"metrics"`
	}{r.prov, r.attempted, r.failed, r.errs, ms}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, opt.seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
