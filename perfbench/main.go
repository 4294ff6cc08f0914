// Command perfbench is ECFault's benchmark. It runs one workload
// in-process through the repository's public Go APIs, checks every
// output, and prints its metrics; the last line of standard output is one
// JSON object with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See README.md for the workloads and
// metrics, and run.py for the build-and-run entry point.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/erasure/codecache"
	"repro/internal/erasure/kernel"
	"repro/internal/gf256"
	"repro/internal/parallel"
)

const (
	pluginRS   = "jerasure_reed_sol_van"
	pluginClay = "clay"

	// defaultSeed drives the inputs unless --seed is given; heldOutSeed
	// is reserved for confirming a claim on inputs it was not tuned on.
	defaultSeed = 1
	heldOutSeed = 8191

	// payloadObjects is payload-rw's object count per cycle.
	payloadObjects = 256

	// setupProbes and setupProbeTime are the fewest times, and the
	// least total time, the set-up is timed in child processes; setup_s
	// is their median, so a set-up of a few milliseconds gets enough
	// probes to steady it.
	setupProbes    = 9
	setupProbeTime = time.Second
	// minUnits is the fewest units a run measures, however short
	// --seconds is.
	minUnits = 3
)

var workloadNames = []string{"fig2-campaign", "payload-rw", "codec-stream"}

// workload is one benchmark workload. unit runs one unit of work (a
// campaign, an RS+Clay payload cycle pair, a codec round), verifies its
// outputs, and returns its timed host time; tr is nil when untraced.
type workload interface {
	unit(tr *tracer) time.Duration
	// opKinds returns the latency samples of each kind of op.
	opKinds() []samples
	// report adds the workload's named metrics to r.
	report(r *report)
	// counts returns attempted and failed operations so far.
	counts() (attempted, failed int)
}

// coldUnits reports whether each unit starts from a collected heap. A
// campaign does, as a fresh ecbench process would; payload cycles and
// codec rounds run back to back, as a client's or library user's loop
// does.
func coldUnits(w workload) bool {
	_, ok := w.(*campaign)
	return ok
}

func (c *campaign) counts() (int, int)    { return c.attempted, c.failed }
func (w *payload) counts() (int, int)     { return w.attempted, w.failed }
func (w *codecStream) counts() (int, int) { return w.attempted, w.failed }

// setup does everything a workload needs before its first timed op: the
// gf256 backend probe, kernel calibration, code registry construction,
// and input generation.
func setup(name string, seed int64) (workload, error) {
	gf256.Backend()
	kernel.Tuning()
	for _, label := range codeLabels {
		if _, err := codecFor(label); err != nil {
			return nil, err
		}
	}
	switch name {
	case "fig2-campaign":
		return newCampaign(1), nil
	case "payload-rw":
		return newPayload(seed, payloadObjects), nil
	case "codec-stream":
		return newCodecStream(seed, 1)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"unit_s", "s", "lower"},
	{"op_p50_us", "us", "lower"},
}

// report collects human-readable metric lines.
type report struct{ lines []string }

func (r *report) line(name, value, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("metric %-28s %s %s", name, value, unit))
}

// timing adds <base>_p50_<unit> and, when there are enough samples, a
// tail line; scale converts seconds to unit.
func (r *report) timing(base, unit string, s samples, scale float64) {
	if len(s) == 0 {
		r.line(base+"_p50_"+unit, "n/a", "(no samples)")
		return
	}
	tail, label := s.tailQuantile()
	r.line(base+"_p50_"+unit, fmt.Sprintf("%.4f", s.median()*scale), fmt.Sprintf("%s (n=%d)", unit, len(s)))
	if label != "p50" {
		r.line(base+"_"+label+"_"+unit, fmt.Sprintf("%.4f", tail*scale), fmt.Sprintf("%s (n=%d)", unit, len(s)))
	}
}

// geomeanMedians is the geometric mean over op kinds of each kind's
// median latency, so every kind weighs the same however long it takes.
func geomeanMedians(kinds []samples) float64 {
	var logSum float64
	n := 0
	for _, s := range kinds {
		if m := s.median(); m > 0 {
			logSum += math.Log(m)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig2-campaign, payload-rw or codec-stream")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for confirming claims)", defaultSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	spans := flag.String("spans", "", "where the traced run writes its spans (default .bench_build/perfbench/spans-<workload>-seed<seed>.jsonl)")
	source := flag.String("source", "", "source revision to print with the run metadata")
	probe := flag.Bool("setup-probe", false, "internal: run the set-up only and report readiness")
	flag.Parse()

	if *probe {
		if _, err := setup(*name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println("ready")
		return
	}
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace is 0 or 1, not %d\n", *trace)
		os.Exit(2)
	}
	printMeta(*name, *seed, *seconds, *trace == 1, *source)
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		if *spans == "" {
			*spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-seed%d.jsonl", *name, *seed)
		}
		res, err = runTraced(*name, *seed, budget, *spans)
	} else {
		res, err = runPlain(*name, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runPlain is the untraced run: the set-up timed in child processes,
// then units of the workload until the budget is spent.
func runPlain(name string, seed int64, budget time.Duration) (result, error) {
	setupS, probes, err := probeSetup(name, seed)
	if err != nil {
		return result{}, err
	}
	w, err := setup(name, seed)
	if err != nil {
		return result{}, err
	}
	var units samples // timed host seconds per unit
	var peaks samples // per-unit resident high-water marks, MB
	steal0, total0 := cpuSteal()
	deadline := time.Now().Add(budget)
	for n := 0; n < minUnits || time.Now().Before(deadline); n++ {
		reset := startUnit(coldUnits(w))
		units.add(w.unit(nil))
		if reset {
			peaks = append(peaks, peakRSSMB())
		}
	}
	steal1, total1 := cpuSteal()
	peak := peaks.median()
	if len(peaks) == 0 {
		peak = peakRSSMB() // no per-unit reset: the process's peak
	}
	values := map[string]float64{
		"setup_s":     setupS,
		"peak_rss_mb": peak,
		"unit_s":      units.median(),
		"op_p50_us":   geomeanMedians(w.opKinds()) * 1e6,
	}
	res := result{Metrics: map[string]metric{}}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	res.Attempted, res.Failed = w.counts()

	var r report
	r.line("setup_s", fmt.Sprintf("%.4f", setupS), fmt.Sprintf("s (median of n=%d set-ups)", probes))
	w.report(&r)
	r.line("peak_rss_mb", fmt.Sprintf("%.1f", peak), fmt.Sprintf("MB (median of n=%d per-unit peaks)", len(peaks)))
	r.line("unit_s", fmt.Sprintf("%.4f", units.median()), fmt.Sprintf("s (median of n=%d units)", len(units)))
	r.line("op_p50_us", fmt.Sprintf("%.4f", values["op_p50_us"]), "us (geomean of per-kind medians)")
	r.line("failed_frac", fmt.Sprintf("%.6f", float64(res.Failed)/float64(max(res.Attempted, 1))), fmt.Sprintf("(%d of %d ops)", res.Failed, res.Attempted))
	if total1 > total0 {
		r.line("host_cpu_steal_frac", fmt.Sprintf("%.4f", (steal1-steal0)/(total1-total0)), "(hypervisor steal while measuring; high values mean a noisy run)")
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	return res, nil
}

// probeSetup times the set-up in fresh child processes, from process
// start to readiness, and returns the median in seconds and the number
// of probes.
func probeSetup(name string, seed int64) (float64, int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var times samples
	start := time.Now()
	for len(times) < setupProbes || time.Since(start) < setupProbeTime {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, 0, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return 0, 0, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return 0, 0, fmt.Errorf("set-up probe: unexpected output %q", line)
		}
		times.add(d)
	}
	return times.median(), len(times), nil
}

func printMeta(name string, seed int64, seconds float64, traced bool, source string) {
	if source == "" {
		source = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					source = s.Value
				}
			}
		}
	}
	chunk, par, strided := kernel.Tuning()
	seedNote := ""
	if name == "fig2-campaign" {
		seedNote = " (unused: the campaign runs the paper's fixed profiles)"
	}
	fmt.Printf("meta workload=%s seed=%d%s seconds=%g trace=%t\n", name, seed, seedNote, seconds, traced)
	fmt.Printf("meta gf256.backend=%s kernel.tuning=(chunk=%d,parallel=%d,strided=%d)\n", gf256.Backend(), chunk, par, strided)
	fmt.Printf("meta parallel.workers=%d parallel.kernel_workers=%d nproc=%d gomaxprocs=%d\n",
		parallel.Workers(), parallel.KernelWorkers(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("meta go=%s source=%s\n", runtime.Version(), source)
}

// layerMetrics holds per-layer values by name.
type layerMetrics map[string]float64

type layerMetric struct{ name, unit, better string }

// layerList is every per-layer metric a traced run reports, in report
// order; BENCHMARK.json lists the same names.
var layerList = func() []layerMetric {
	l := []layerMetric{
		{"experiments.fig2a_s", "s", "lower"},
		{"experiments.fig2b_s", "s", "lower"},
		{"experiments.fig2c_s", "s", "lower"},
		{"experiments.fig2d_s", "s", "lower"},
		{"experiments.snapshot_hits", "count", "higher"},
		{"experiments.snapshot_misses", "count", "lower"},
		{"experiments.snapshot_hit_ratio", "ratio", "higher"},
		{"core.populate_ms", "ms", "lower"},
		{"core.cell_run_ms", "ms", "lower"},
		{"cluster.bulkload_ms", "ms", "lower"},
		{"cluster.snapshot_ms", "ms", "lower"},
		{"cluster.fork_ms", "ms", "lower"},
		{"cluster.recovery_ms", "ms", "lower"},
		{"cluster.object_repairs", "count", "lower"},
		{"cluster.repaired_chunks", "count", "lower"},
		{"cluster.helper_disk_bytes", "bytes", "lower"},
		{"cluster.network_bytes", "bytes", "lower"},
		{"cluster.full_decode_objects", "count", "lower"},
		{"cluster.wa_factor", "ratio", "lower"},
		{"simclock.run_ms", "ms", "lower"},
		{"simclock.sim_s_per_host_s", "ratio", "higher"},
		{"simclock.pending_at_start", "count", "lower"},
		{"blockdev.write_bytes", "bytes", "lower"},
		{"blockdev.write_ops", "count", "lower"},
		{"blockdev.read_bytes", "bytes", "lower"},
		{"blockdev.read_ops", "count", "lower"},
	}
	for _, code := range codeLabels {
		for _, op := range codecOps {
			for _, sz := range codecSizes {
				l = append(l, layerMetric{"erasure." + code + "." + op + "." + sz.label + ".p50_us", "us", "lower"})
			}
		}
	}
	l = append(l,
		layerMetric{"erasure.codecache_hits", "count", "higher"},
		layerMetric{"erasure.codecache_misses", "count", "lower"},
		layerMetric{"gf256.muladd_row_gbps.32k", "GB/s", "higher"},
		layerMetric{"gf256.muladd_row_gbps.4m", "GB/s", "higher"},
		layerMetric{"runtime.alloc_mb", "MB", "lower"},
		layerMetric{"runtime.gc_cycles", "count", "lower"},
		layerMetric{"runtime.gc_pause_ms", "ms", "lower"},
	)
	for _, layer := range shareLayers {
		l = append(l, layerMetric{layer + ".share", "fraction", "lower"})
	}
	return append(l, layerMetric{"bench.trace_overhead_frac", "fraction", "lower"})
}()

// shareLayers are the layers whose self time the benchmark's spans
// measure; runtime's share is the runtime's own GC CPU fraction.
var shareLayers = []string{layerExperiments, layerCore, layerCluster, layerSimclock, layerErasure, layerGF256, "runtime", layerBench}

// unmeasured lists what the traced run cannot time from outside the
// program, so it is reported as missing rather than dropped.
var unmeasured = []string{
	"bluestore and blockdev self time: only cluster calls them; their time stays in cluster's share (blockdev reports I/O counts)",
	"parallel self time: the worker pool runs inside experiments cell fan-out and inside codec kernels",
	"gf256 self time inside erasure calls: the codec calls the kernels internally; gf256.share covers direct MulAddRow calls only",
	"erasure time inside fig2-campaign cells: the campaign's pools use the registry's codes directly; the traced replays show it",
	"kernel and codecache split within erasure: codecache lookups are outside the timed codec calls",
	"core and cluster time inside the Fig2* calls: the traced replays of three reference cells time those layers instead",
}

// tracedSection is what one workload's traced section measured.
type tracedSection struct {
	plain, traced samples
	mem           []memDelta
	self          map[string]time.Duration
	wall          time.Duration
}

// traceSection runs traced units of w, each after an untraced one when
// withPlain, at least minRounds times and until deadline, and returns
// what they measured. extra runs inside each traced unit's root
// span after the unit.
func traceSection(name string, w workload, tr *tracer, deadline time.Time, minRounds int, withPlain bool, extra func() error) (tracedSection, error) {
	var s tracedSection
	from := tr.mark()
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		if withPlain {
			activeTracer.Store(nil)
			startUnit(coldUnits(w))
			s.plain.add(w.unit(nil))
			activeTracer.Store(tr)
		}
		startUnit(coldUnits(w))
		tr.nextRun()
		m0 := readMem()
		root := tr.begin(layerBench, name+".unit")
		s.traced.add(w.unit(tr))
		s.mem = append(s.mem, m0.to(readMem()))
		if extra != nil {
			if err := extra(); err != nil {
				tr.end(root)
				return s, err
			}
		}
		s.wall += tr.end(root)
	}
	s.self = tr.selfTimes(from, tr.mark())
	return s, nil
}

// runTraced measures every layer: one traced pass over each workload not
// selected, then the selected workload alternating untraced and traced
// units until the budget is spent. Shares, runtime costs and the tracing
// overhead are the selected workload's.
func runTraced(selected string, seed int64, budget time.Duration, spansPath string) (result, error) {
	tr := newTracer()
	activeTracer.Store(tr)
	defer activeTracer.Store(nil)
	lm := layerMetrics{}
	start := time.Now()
	attempted, failed := 0, 0
	var sel tracedSection

	order := []string{}
	for _, n := range workloadNames {
		if n != selected {
			order = append(order, n)
		}
	}
	order = append(order, selected)
	for _, name := range order {
		w, err := setup(name, seed)
		if err != nil {
			return result{}, err
		}
		isSel := name == selected
		deadline := start // one pass for the others
		if isSel {
			deadline = start.Add(budget)
		}
		var extra func() error
		rounds := 1
		switch w := w.(type) {
		case *campaign:
			extra = func() error { return w.replay(tr, lm) }
		case *codecStream:
			extra = func() error { w.rowProbe(tr); return nil }
			rounds = 3
		}
		s, err := traceSection(name, w, tr, deadline, rounds, isSel, extra)
		if err != nil {
			return result{}, err
		}
		switch w := w.(type) {
		case *campaign:
			for _, f := range figureFns {
				lm["experiments."+f.id+"_s"] = tr.durations(0, tr.mark(), "experiments."+f.id).median()
			}
			lm["experiments.snapshot_hits"] = float64(w.hits)
			lm["experiments.snapshot_misses"] = float64(w.misses)
			if total := w.hits + w.misses; total > 0 {
				lm["experiments.snapshot_hit_ratio"] = float64(w.hits) / float64(total)
			}
		case *payload:
			w.layers(lm)
		case *codecStream:
			w.layers(lm)
		}
		a, f := w.counts()
		attempted += a
		failed += f
		if isSel {
			sel = s
		}
		runtime.GC()
	}
	hits, misses := codecache.Stats()
	lm["erasure.codecache_hits"] = float64(hits)
	lm["erasure.codecache_misses"] = float64(misses)

	var alloc, cycles, pause, gcFrac samples
	for _, m := range sel.mem {
		alloc = append(alloc, m.allocMB)
		cycles = append(cycles, m.gcCycles)
		pause = append(pause, m.pauseMs)
		gcFrac = append(gcFrac, m.gcCPUFrac)
	}
	lm["runtime.alloc_mb"] = alloc.median()
	lm["runtime.gc_cycles"] = cycles.median()
	lm["runtime.gc_pause_ms"] = pause.median()
	lm["runtime.share"] = gcFrac.median()
	for _, layer := range shareLayers {
		if layer != "runtime" && sel.wall > 0 {
			lm[layer+".share"] = float64(sel.self[layer]) / float64(sel.wall)
		}
	}
	if p := sel.plain.median(); p > 0 {
		lm["bench.trace_overhead_frac"] = sel.traced.median()/p - 1
	}

	if err := tr.write(spansPath); err != nil {
		return result{}, err
	}
	printLayers(selected, lm, sel, spansPath)
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, l := range layerList {
		res.Metrics[l.name] = metric{lm[l.name], l.unit}
	}
	return res, nil
}

func printLayers(selected string, lm layerMetrics, sel tracedSection, spansPath string) {
	for _, l := range layerList {
		fmt.Printf("layer %-36s %.6g %s\n", l.name, lm[l.name], l.unit)
	}
	self := make([]string, 0, len(sel.self))
	for layer := range sel.self {
		self = append(self, layer)
	}
	sort.Strings(self)
	for _, layer := range self {
		fmt.Printf("self %-12s %.4f s of %.4f s traced wall time on %s\n", layer, sel.self[layer].Seconds(), sel.wall.Seconds(), selected)
	}
	fmt.Printf("trace overhead on %s: traced unit %.4f s vs untraced %.4f s (medians of %d and %d)\n",
		selected, sel.traced.median(), sel.plain.median(), len(sel.traced), len(sel.plain))
	for _, u := range unmeasured {
		fmt.Println("unmeasured", u)
	}
	fmt.Println("spans written to", spansPath)
}
