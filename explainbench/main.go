// Command explainbench is the explaind benchmark. It boots explaind's
// serving stack in process, the way cmd/explaind assembles it, drives it
// over loopback HTTP with one of three workloads (hot-cached,
// cold-kernelshap, batch-churn), checks a seeded sample of the replies
// against an uncached in-process reference, and prints the end-to-end
// metrics. With -trace 1 it instead runs the traced variant, which times
// the public entry point of every layer on the workload's own inputs and
// prints the per-layer metrics. See README.md beside this file.
//
//	go run . -workload hot-cached -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"nfvxai/internal/mat"
	"nfvxai/internal/sched"
)

// setupReps is how many times an untraced run sets the workload up;
// setup_s is the median, and the last stack is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        int     `json:"seconds"`
	Trace          int     `json:"trace"`
	Nproc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	SchedWorkers   int     `json:"sched_workers"`
	MatBackend     string  `json:"mat_backend"`
	GoVersion      string  `json:"go_version"`
	CPU            string  `json:"cpu"`
	Commit         string  `json:"commit"`
	Conns          int     `json:"client_conns"`
	OpenRate       float64 `json:"open_loop_rate_rps"`
	OpenRequests   int     `json:"open_loop_requests"`
	TailWindows    int     `json:"tail_windows"`
	TailPercentile float64 `json:"tail_percentile"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: hot-cached | cold-kernelshap | batch-churn")
		seed    = flag.Int64("seed", 1, "workload seed: request streams and arrival times derive from it")
		seconds = flag.Int("seconds", 24, "measured seconds, split between the open- and closed-loop phases")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics instead")
		outDir  = flag.String("out-dir", "", "directory the traced run writes its spans to (empty: not written)")
	)
	flag.Parse()
	w, ok := workloadNamed(*name)
	if !ok || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "explainbench: need -workload (hot-cached | cold-kernelshap | batch-churn), -seconds >= 2, -trace 0|1\n")
		return 2
	}
	conns := runtime.NumCPU()
	total := time.Duration(*seconds) * time.Second
	openD, _ := w.phases(total)
	if *trace == 1 {
		openD = total / 2 // the traced run's two open-loop phases
	}
	env := environment{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SchedWorkers: sched.Default().Workers(), MatBackend: mat.Active().Name(),
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: commit(),
		Conns: conns, OpenRate: w.rate,
	}
	env.OpenRequests = int(w.rate*openD.Seconds() + 0.5)
	env.TailWindows, env.TailPercentile = tailPlan(env.OpenRequests)
	fmt.Printf("explainbench %s seed %d: %s\n", w.name, *seed, w.why)
	envJSON, _ := json.Marshal(env) // plain struct of strings and numbers
	fmt.Printf("env %s\n", envJSON)

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, conns, total, *outDir)
	} else {
		res, err = timedRun(w, *seed, conns, total)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "explainbench:", err)
		return 1
	}
	out, _ := json.Marshal(res) // finite floats only
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "explainbench:", errIncorrect)
		return 1
	}
	return 0
}

// timedRun is the untraced run: setupReps setups, an open-loop phase and
// a closed-loop phase sharing total, then the correctness oracle.
func timedRun(w *workload, seed int64, conns int, total time.Duration) (result, error) {
	var s *session
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.st.close()
		}
		runtime.GC() // each setup starts from a collected heap, so peak RSS is one setup's
		t0 := time.Now()
		var err error
		if s, err = setup(w, seed, conns); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.st.close()
	openD, closedD := w.phases(total)
	open, err := s.openPhase(openD, 0)
	if err != nil {
		return result{}, err
	}
	closed, err := s.closedPhase(closedD)
	if err != nil {
		return result{}, err
	}
	checked, bad, err := s.verify()
	if err != nil {
		return result{}, err
	}

	p50 := median(append([]float64(nil), open.latencies...))
	tail := windowedTail(open.latencies)
	tailW, tailQ := tailPlan(len(open.latencies))
	rps := closedRate(closed.done)
	var completed int
	var elapsed time.Duration
	for _, d := range closed.done {
		completed += len(d)
		if n := len(d); n > 0 && d[n-1] > elapsed {
			elapsed = d[n-1]
		}
	}
	res := result{
		Attempted: open.attempted + closed.attempted,
		Failed:    open.failed + closed.failed + bad,
		Metrics: map[string]metric{
			"setup_s":         {median(append([]float64(nil), setups...)), "s"},
			"latency_p50_ms":  {p50, "ms"},
			"latency_tail_ms": {tail, "ms"},
			"throughput_rps":  {rps, "req/s"},
			"peak_rss_mb":     {peakRSSMiB(), "MiB"},
		},
	}
	res.Correct = bad == 0
	for _, ph := range []phase{open, closed} {
		if ph.tallyErr != nil {
			fmt.Println("correctness:", ph.tallyErr)
			res.Correct = false
			res.Failed++
		}
	}
	errRatio := float64(res.Failed) / float64(res.Attempted)

	fmt.Printf("setup_s          %10.4f s      median of %d setups %.3f\n", res.Metrics["setup_s"].Value, setupReps, setups)
	fmt.Printf("latency_p50_ms   %10.4f ms     open loop, %d arrivals at %g req/s, timed from due time\n", p50, open.attempted, w.rate)
	fmt.Printf("latency_tail_ms  %10.4f ms     p%g (highest percentile with >=10 samples beyond it) of each of %d windows, median\n", tail, tailQ, tailW)
	fmt.Printf("throughput_rps   %10.4f req/s  closed loop, %d clients, %d ok in %.2fs, %d windows\n",
		rps, conns, completed, elapsed.Seconds(), rateWindows(completed, elapsed))
	fmt.Printf("error_ratio      %10.4f 1      %d failed of %d attempted\n", errRatio, res.Failed, res.Attempted)
	fmt.Printf("peak_rss_mb      %10.4f MiB\n", res.Metrics["peak_rss_mb"].Value)
	late := append([]float64(nil), open.late...)
	fmt.Printf("generator late p50 %.3f ms p99 %.3f ms; cache hit ratio %.3f (open) %.3f (closed); hot swaps %d; oracle checked %d replies, %d mismatched\n",
		percentile(late, 50), percentile(late, 99), hitRatio(open.before, open.after), hitRatio(closed.before, closed.after), s.swaps, checked, bad)
	return res, nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
