// Command perfbench is the repository benchmark: one program that drives
// the page-update, page-read and kv-serve workloads through the public
// functions of internal/core, internal/kv and internal/flash on the
// emulated chip, checks every read against a model of what was written,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run) as the last line of standard output.
//
// Build and run it through run.py beside this file, from the repository
// root:
//
//	python3 perfbench/run.py --workload page-update --seed 1 --seconds 10 --trace 0
//
// README.md beside this file explains why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Set at link time by run.py: the commit of the checkout (when it is a
// git checkout) and a digest of the Go sources the binary was built from.
var (
	commit       = "unknown"
	sourceDigest = "unknown"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// unbounded names the end-to-end metrics an untraced run prints in its
// report line rather than in its result, which holds the metrics
// BENCHMARK.json bounds. On the 2-vCPU Xeon VM the benchmark was tuned on,
// the host's speed shifts by 20-30 % for minutes at a time. These three
// follow it by more than the largest bound a metric may have: over ten
// runs, their quartile spread reached 0.24-0.40 of the median.
var unbounded = map[string]bool{"ops_per_s": true, "op_p99_us": true, "recover_s": true}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (optional)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	rep := &report{Workload: o.workload, Host: hostRecord(o.seed), Trace: o.trace}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(wl, o, rep)
	} else {
		res, err = runUntraced(wl, o, rep)
	}
	var mm *mismatchError
	if err != nil && !errors.As(err, &mm) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	if err != nil {
		// A model mismatch is a wrong answer, never a counted failure.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res = &result{Correct: false, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: metrics{}}
		code = 1
	}
	out := bufio.NewWriter(os.Stdout)
	for _, v := range []any{map[string]*report{"report": rep}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(out, string(line))
	}
	if err := out.Flush(); err != nil {
		return 1
	}
	return code
}

// mismatchError reports a read that disagreed with the model.
type mismatchError struct{ what string }

func (e *mismatchError) Error() string { return "model mismatch: " + e.what }

func mismatchf(format string, args ...any) error {
	return &mismatchError{what: fmt.Sprintf(format, args...)}
}

// runUntraced sets the workload up setupRepeats times. Each instance is
// measured for an equal share of o.seconds and then finished: read-back,
// flush, crash, Recover and full compare. Spreading the windows and the
// recoveries over the run keeps a passing burst of host load from
// deciding a whole run's figures.
func runUntraced(wl workload, o options, rep *report) (*result, error) {
	var ws []*window
	var ends []*ending
	setups := make([]float64, 0, setupRepeats)
	share := time.Duration(o.seconds) * time.Second / setupRepeats
	for i := range setupRepeats {
		runtime.GC()
		t0 := time.Now()
		inst, err := wl.setup(o.seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		w, err := inst.measure(stopRule{window: share})
		if err != nil {
			inst.close()
			return nil, err
		}
		rep.addWindow(w, i == 0)
		e, err := inst.finish()
		if err != nil {
			return nil, err
		}
		ws, ends = append(ws, w), append(ends, e)
		rep.addEnding(e)
	}
	res := &result{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics{}}
	rep.Unbounded = metrics{}
	for name, v := range endToEnd(ws, ends, median(setups)) {
		if unbounded[name] {
			rep.Unbounded[name] = v
		} else {
			res.Metrics[name] = v
		}
	}
	return res, nil
}

// runTraced measures an untraced window, then sets the workload up again
// from the same seed with the device decorator and store timers in
// place and replays exactly as many operations per client. The traced
// pass yields the per-layer metrics; the difference between the two
// passes' end-to-end metrics is the tracing overhead. With a single
// client the two passes issue the same operations to the same store, so
// their flash reads, programs, erases and simulated time must be equal.
func runTraced(wl workload, o options, rep *report) (*result, error) {
	t0 := time.Now()
	base, err := wl.setup(o.seed, nil)
	if err != nil {
		return nil, err
	}
	setup0 := time.Since(t0).Seconds()
	w0, err := base.measure(stopRule{window: time.Duration(o.seconds) * time.Second})
	if err != nil {
		return nil, err
	}
	end0, err := base.finish()
	if err != nil {
		return nil, err
	}
	m0 := endToEnd([]*window{w0}, []*ending{end0}, setup0)
	runtime.GC()

	tr := newTracer(wl.clients == 1)
	t0 = time.Now()
	inst, err := wl.setup(o.seed, tr)
	if err != nil {
		return nil, err
	}
	setup1 := time.Since(t0).Seconds()
	w1, err := inst.measure(stopRule{limits: w0.clientOps})
	if err != nil {
		return nil, err
	}
	rep.addWindow(w1, true)
	rep.addEnding(end0)
	end1, err := inst.finish()
	if err != nil {
		return nil, err
	}
	rep.addEnding(end1)
	m1 := endToEnd([]*window{w1}, []*ending{end1}, setup1)
	rep.EndToEnd = m1
	rep.Overhead = make(map[string]float64, len(m1))
	for k, v := range m1 {
		rep.Overhead[k] = v.Value - m0[k].Value
	}
	if wl.clients == 1 && w0.d.dev != w1.d.dev {
		return nil, mismatchf("flash counts differ with tracing: untraced %+v, traced %+v", w0.d.dev, w1.d.dev)
	}
	kernels, kernelNotes, err := replayKernels(&tr.sampler)
	if err != nil {
		return nil, err
	}
	layers, notes := perLayer(tr, w1, end1, kernels, wl.clients == 1)
	for k, v := range kernelNotes {
		notes[k] = v
	}
	rep.NotMeasured = notes
	rep.Layers = layers
	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return &result{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: layers}, nil
}

// stopRule ends a client's closed loop: after a wall-clock window, or,
// when limits is set, after client c has done limits[c] operations.
type stopRule struct {
	window time.Duration
	limits []int64
}

func (r stopRule) more(c int, done int64, elapsed time.Duration) bool {
	if r.limits != nil {
		return done < r.limits[c]
	}
	return elapsed < r.window
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of ascending ns
// samples, in microseconds.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(int(float64(len(sorted))*p/100), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

// liveHeap returns the bytes of heap reachable after a full collection.
// Two collections also empty sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// report is the detail line printed before the result: the host
// record, the sizes, sample counts, failure share, cache hit ratios,
// recovery times, the unbounded end-to-end metrics of an untraced run
// and, for a traced run, its end-to-end metrics, the tracing overhead
// and the per-layer metrics that read 0 with the reason.
type report struct {
	Workload       string             `json:"workload"`
	Host           host               `json:"host"`
	Trace          bool               `json:"trace"`
	Sizes          map[string]int     `json:"sizes"`
	Attempted      int64              `json:"attempted"`
	Failed         int64              `json:"failed"`
	FailFrac       float64            `json:"fail_frac"`
	LatencySamples []int              `json:"latency_samples_per_window"`
	DiffCacheHit   float64            `json:"diff_cache_hit_ratio"`
	PoolHit        float64            `json:"pool_hit_ratio"`
	Unbounded      metrics            `json:"unbounded_end_to_end,omitempty"`
	EndToEnd       metrics            `json:"end_to_end,omitempty"`
	RecoverTimes   []float64          `json:"recover_s_each"`
	Overhead       map[string]float64 `json:"trace_overhead,omitempty"`
	Layers         metrics            `json:"per_layer,omitempty"`
	NotMeasured    map[string]string  `json:"reads_zero_because,omitempty"`

	hits, misses, poolHits, poolMisses int64
}

// addWindow adds a measured window's counts; first starts a new run.
func (r *report) addWindow(w *window, first bool) {
	if first {
		*r = report{Workload: r.Workload, Host: r.Host, Trace: r.Trace, Sizes: w.sizes}
	}
	r.count(w.ops, w.failed)
	r.LatencySamples = append(r.LatencySamples, len(w.lat))
	r.hits += w.d.tel.DiffCacheHits
	r.misses += w.d.tel.DiffCacheMisses
	r.poolHits += w.d.pool.Hits
	r.poolMisses += w.d.pool.Misses
	r.DiffCacheHit = ratio(float64(r.hits), float64(r.hits+r.misses))
	r.PoolHit = ratio(float64(r.poolHits), float64(r.poolHits+r.poolMisses))
}

// addEnding adds a finished instance's read-back counts and Recover
// times.
func (r *report) addEnding(e *ending) {
	r.count(e.checked, e.failed)
	r.RecoverTimes = append(r.RecoverTimes, e.recoverS...)
}

func (r *report) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
	r.FailFrac = ratio(float64(r.Failed), float64(r.Attempted))
}

// host is the record that makes host numbers from different commits
// comparable.
type host struct {
	Seed         int64  `json:"seed"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPU          string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_sha256"`
}

func hostRecord(seed int64) host {
	h := host{
		Seed:         seed,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPU:          "unknown",
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceDigest: sourceDigest,
	}
	if bi, ok := debug.ReadBuildInfo(); ok && h.Commit == "unknown" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
