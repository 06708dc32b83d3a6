// Command bench is the Rio file server's benchmark. One invocation runs
// one workload for a fixed time and prints, as the last line of its
// standard output, one JSON object: whether every output checked out,
// how many operations were attempted and failed, and the metrics.
//
//	bash _bench/run.sh --workload serve-spill --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced and the metrics are the per-layer ones. A readable
// report goes to standard error, and the full result (plus, traced, the
// span log) to --out. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procStart is taken as the process starts: set-up time runs from here.
var procStart = time.Now()

type metricDef struct{ name, unit, better string }

// endToEnd and perLayer list the metrics in BENCHMARK.json order; a test
// keeps the two in step.
var endToEnd = []metricDef{
	{"cpu_us_per_op", "us", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"client.ops_per_s", "ops/s", "higher"},
	{"client.p50_us", "us", "lower"},
	{"client.p99_us", "us", "lower"},
	{"client.read_p50_us", "us", "lower"},
	{"client.read_p99_us", "us", "lower"},
	{"client.write_p50_us", "us", "lower"},
	{"client.write_p99_us", "us", "lower"},
	{"client.recover_ms", "ms", "lower"},
	{"process.peak_rss_mb", "MB", "lower"},
	{"server.exec_p50_us", "us", "lower"},
	{"server.exec_p99_us", "us", "lower"},
	{"server.avg_batch", "req/batch", "higher"},
	{"server.avg_queue", "req", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.writev_frames_per_call", "frames/call", "higher"},
	{"server.client_gap_p50_us", "us", "lower"},
	{"wire.codec_ns_per_op", "ns/op", "lower"},
	{"wire.bytes_per_op", "B/op", "lower"},
	{"fs.lookup_ns", "ns", "lower"},
	{"fs.read_ns", "ns", "lower"},
	{"fs.write_ns", "ns", "lower"},
	{"fs.namespace_ns", "ns", "lower"},
	{"fs.dcache_hit_ratio", "ratio", "higher"},
	{"fs.syscalls_per_op", "count/op", "lower"},
	{"fs.meta_updates_per_op", "count/op", "lower"},
	{"cache.data_hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_op", "count/op", "lower"},
	{"cache.writebacks_per_op", "count/op", "lower"},
	{"cache.shadow_writes_per_op", "count/op", "lower"},
	{"kernel.heap_allocs_per_op", "count/op", "lower"},
	{"kernel.heap_frees_per_op", "count/op", "lower"},
	{"kernel.heap_live_blocks", "count", "lower"},
	{"mmu.loads_per_op", "count/op", "lower"},
	{"mmu.prot_toggles_per_op", "count/op", "lower"},
	{"mmu.tlb_miss_ratio", "ratio", "lower"},
	{"disk.reads_per_op", "count/op", "lower"},
	{"disk.writes_per_op", "count/op", "lower"},
	{"disk.write_amplification", "ratio", "lower"},
	{"registry.live_entries", "count", "lower"},
	{"sim.us_per_op", "us/op", "lower"},
	{"warmreboot.dump_ms", "ms", "lower"},
	{"warmreboot.registry_parse_ms", "ms", "lower"},
	{"warmreboot.restore_ms", "ms", "lower"},
	{"warmreboot.entries", "count", "lower"},
	{"warmreboot.meta_restored", "count", "higher"},
	{"warmreboot.data_restored", "count", "higher"},
	{"crashtest.runs_per_s", "runs/s", "higher"},
	{"crashtest.run_ms", "ms", "lower"},
	{"crashtest.discard_ratio", "ratio", "lower"},
	{"crashtest.speculative_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	base     time.Time
}

// phaseDuration is the length of one timed phase. A traced run splits
// its time between an untraced phase and a traced one, whose ratio is
// the tracing overhead.
func (o *options) phaseDuration() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	return d
}

// report collects one run's outcome.
type report struct {
	attempted, failed   uint64
	problems            []string
	setupCPU, setupWall float64    // seconds from process start to end of set-up
	st                  phaseStats // the untraced timed phase
	tracedSt            *phaseStats
	recoverMs           []float64
	server              *serverDelta
	layer               map[string]float64
	clientSpans         [][]span
	replay              *replayer
	notes               []string
}

// fail records a failed operation or check; the run stops and reports
// correct=false.
func (r *report) fail(err error) error {
	r.problems = append(r.problems, err.Error())
	r.failed++
	return nil
}

// setupDone records the set-up's cost: process CPU time, which host
// contention moves far less than wall time, and wall time for the
// readable report.
func (r *report) setupDone(o *options) {
	r.setupCPU = cpuNow().Seconds()
	r.setupWall = time.Since(o.base).Seconds()
}

var workloads = map[string]func(*options, *report) error{
	"serve-spill":    func(o *options, r *report) error { return runKV(&serveSpill, o, r) },
	"serve-read-tcp": func(o *options, r *report) error { return runKV(&serveReadTCP, o, r) },
	"crash-recover":  runCrashRecover,
	"campaign":       runCampaign,
}

func main() {
	o := options{base: procStart}
	flag.StringVar(&o.workload, "workload", "", "serve-spill, serve-read-tcp, crash-recover or campaign")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the result file and the span log")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench --workload serve-spill|serve-read-tcp|crash-recover|campaign --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1

	rep := &report{layer: map[string]float64{}}
	if err := run(&o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	metrics := rep.metrics(&o)
	human := rep.human(&o, metrics)
	fmt.Fprint(os.Stderr, human)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.save(&o, human, line); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metrics computes every metric this run defines; the rest stay 0.
func (r *report) metrics(o *options) map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.layer {
		m[k] = v
	}
	m["cpu_us_per_op"] = r.st.cpuUsPerOp
	m["setup_s"] = r.setupCPU
	m["client.ops_per_s"] = r.st.opsPerS
	m["client.p50_us"] = r.st.p50
	m["client.p99_us"] = r.st.p99
	m["process.peak_rss_mb"] = peakRSSMB()
	if o.workload != "campaign" {
		m["client.read_p50_us"] = r.st.readP50
		m["client.read_p99_us"] = r.st.readP99
		m["client.write_p50_us"] = r.st.writeP50
		m["client.write_p99_us"] = r.st.writeP99
	}
	m["client.recover_ms"] = median(r.recoverMs)
	if d := r.server; d != nil {
		m["server.exec_p50_us"] = d.execP50
		m["server.exec_p99_us"] = d.execP99
		m["server.avg_batch"] = d.avgBatch
		m["server.avg_queue"] = d.avgQueue
		m["server.rejected"] = float64(d.rejected)
		m["server.writev_frames_per_call"] = d.writevFramesPerCall
		m["server.client_gap_p50_us"] = r.st.p50 - d.execP50
	}
	if r.replay != nil {
		r.replay.layers(m)
	}
	if r.tracedSt != nil && r.st.cpuUsPerOp > 0 {
		m["trace.overhead_ratio"] = r.tracedSt.cpuUsPerOp / r.st.cpuUsPerOp
	}
	return m
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(parts, " ")
}

func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// human renders the readable report.
func (r *report) human(o *options, m map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  seconds %d  trace %v  (nproc %d, GOMAXPROCS %d, %s)\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(&b, "  %-22s %14.3f %-6s %s\n", name, v, unit, note)
	}
	st := r.st
	line("cpu_us_per_op", st.cpuUsPerOp, "us", "process CPU time (all threads) per op, median over windows")
	if o.workload == "campaign" {
		line("campaign_runs_per_s", st.opsPerS, "runs/s", fmt.Sprintf("%d crash-test runs in %.2f s", st.ops, st.seconds))
		line("run_p50_us", st.p50, "us", fmt.Sprintf("per-cell mean run time, %d cell samples", st.reads))
		line("run_p99_us", st.p99, "us", "")
	} else {
		win := fmt.Sprintf("median of %d windows; %d ops in %.2f s, fewest in a window %d", windows, st.ops, st.seconds, st.minWindowOps)
		line("ops_per_s", st.opsPerS, "ops/s", win)
		line("p50_us", st.p50, "us", "all ops")
		line("p99_us", st.p99, "us", "all ops")
		line("read_p50_us", st.readP50, "us", fmt.Sprintf("%d reads", st.reads))
		line("read_p99_us", st.readP99, "us", "")
		line("write_p50_us", st.writeP50, "us", fmt.Sprintf("%d writes", st.writes))
		line("write_p99_us", st.writeP99, "us", "")
		fmt.Fprintf(&b, "  %-22s %s\n", "window ops/s", fmtList(st.windowOpsPerS))
		fmt.Fprintf(&b, "  %-22s %s\n", "window p99 us", fmtList(st.windowP99))
		line("recover_ms", m["client.recover_ms"], "ms", fmt.Sprintf("median OpWarmboot round trip, %d warm reboots", len(r.recoverMs)))
	}
	line("setup_s", r.setupCPU, "s", fmt.Sprintf("CPU time from process start to end of set-up (wall %.3f s)", r.setupWall))
	line("peak_rss_mb", m["process.peak_rss_mb"], "MB", "")
	fmt.Fprintf(&b, "  attempted %d  failed %d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	if o.trace {
		fmt.Fprintf(&b, "per-layer metrics (traced run; 0 = layer not exercised by this workload):\n")
		for _, d := range perLayer {
			fmt.Fprintf(&b, "  %-30s %14.4f %s\n", d.name, m[d.name], d.unit)
		}
		if r.tracedSt != nil {
			fmt.Fprintf(&b, "  tracing overhead: untraced %.1f CPU us/op (%.1f ops/s), traced %.1f CPU us/op (%.1f ops/s)\n",
				r.st.cpuUsPerOp, r.st.opsPerS, r.tracedSt.cpuUsPerOp, r.tracedSt.opsPerS)
		}
		if r.replay != nil {
			b.WriteString("replay self time by span:\n")
			b.WriteString(r.replay.layerTable())
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(&b, "FAILED: %s\n", p)
	}
	return b.String()
}

// save writes the readable report and the result line, and in a traced
// run the span log, under o.out.
func (r *report) save(o *options, human string, line []byte) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, trace))
	if err := os.WriteFile(stem+".txt", []byte(human+string(line)+"\n"), 0o644); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	groups := r.clientSpans
	if r.replay != nil {
		groups = append(groups, r.replay.tr.spans)
	}
	return writeSpans(stem+".spans.tsv.gz", groups...)
}
