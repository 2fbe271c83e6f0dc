package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure: its value, unit, and how many samples
// the value summarizes (1 for a count or a ratio of totals).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report collects a run's metrics and correctness tally.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	errs      []string
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

// fail records one failed operation with its reason; every failure makes
// the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// write prints the human-readable table, then the one-line JSON result the
// harness parses (always the last line of standard output).
func (r *report) write(w io.Writer) {
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	b, _ := json.Marshal(out) // plain structs and maps: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the highest percentile that still has at
// least ten samples beyond it — the (n-10)th smallest of n samples — or the
// maximum when there are ten samples or fewer.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s) <= 10 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

// quantile returns the q-quantile of xs by the nearest-rank rule; 0 for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS returns freed memory to the operating system and restarts
// the process's peak resident set (VmHWM) from the current one, so that
// peakRSSMB covers only what follows: the timed phase, not the garbage of
// the repeated set-ups before it. Where /proc/self/clear_refs cannot be
// written, the peak keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// hostBlock describes the machine and the run, printed before the
// metrics so every recorded figure carries its host.
func hostBlock(workload string, seed uint64, trace bool) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
	}
}
