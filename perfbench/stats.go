package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxFailureLines caps how many failures are printed; all are counted.
const maxFailureLines = 20

var failureLines int

// logFailure prints one failed check, up to maxFailureLines per process.
func logFailure(format string, args ...any) {
	failureLines++
	if failureLines <= maxFailureLines {
		fmt.Printf("FAIL "+format, args...)
	} else if failureLines == maxFailureLines+1 {
		fmt.Println("FAIL ... further failures are counted, not printed")
	}
}

// samples is a list of measured values; add records a duration in
// seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// tailQuantile is the highest of p99, p90 and p50 that has at least ten
// samples beyond it, so a tail figure is never read off a handful of
// points. It returns the quantile and its label.
func (s samples) tailQuantile() (float64, string) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.99, "p99"}, {0.9, "p90"}} {
		if float64(len(s))*(1-c.q) >= 10 {
			return s.quantile(c.q), c.label
		}
	}
	return s.median(), "p50"
}

// startUnit resets the resident high-water mark, so the unit's peak is
// its own, and reports whether the reset worked. With collect it first
// collects garbage, so the unit starts from a heap holding only what the
// workload keeps between units.
func startUnit(collect bool) bool {
	if collect {
		runtime.GC()
	}
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the resident high-water mark (VmHWM) since the process
// started or startUnit last reset it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuSteal reads the host-wide CPU time counters from /proc/stat and
// returns (steal, total) in clock ticks; steal is time the hypervisor ran
// something else while this machine's CPUs wanted to run.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// memSample is the slice of runtime state the runtime layer reports:
// allocation volume, GC cycles and pause time, and the runtime's own
// split of CPU time into GC and total.
type memSample struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
	gcCPU      float64
	totalCPU   float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	s := memSample{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
	}
	if cpuMetrics[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = cpuMetrics[1].Value.Float64()
	}
	return s
}

// memDelta is the runtime-layer cost of one unit of work.
type memDelta struct {
	allocMB, gcCycles, pauseMs, gcCPUFrac float64
}

func (a memSample) to(b memSample) memDelta {
	d := memDelta{
		allocMB:  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
		pauseMs:  float64(b.pauseNs-a.pauseNs) / 1e6,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}
