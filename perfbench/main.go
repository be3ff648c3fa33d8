// Command perfbench measures the host time and memory the simulator
// spends producing a fixed virtual-time result, on three workloads.
// Each run builds the workload's inputs from -seed, runs one untimed
// reference rep, then repeats timed reps (each a whole cluster
// lifetime) for -seconds, checking every rep's output. It prints each
// metric as a median with quartiles, writes a result file, and ends
// with one JSON line. -trace 1 interleaves traced reps with untraced
// ones and reports the per-layer split instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "how long to repeat timed reps")
		trace     = flag.Int("trace", 0, "1 = report the per-layer split from traced reps")
		outDir    = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
		commit    = flag.String("commit", "unknown", "commit the sources came from, recorded in the result file")
		reference = flag.String("reference", "", "file of reference virtual_ns and pkts_sent per workload and seed")
		spec      = flag.String("spec", "", "BENCHMARK.json to check the printed metric names against (self-test)")
		selftest  = flag.Bool("selftest", false, "run every workload short, traced and untraced, and compare")
	)
	flag.Parse()
	// Fixed at nproc whatever the environment says, so every result is
	// measured under the same setting, the one a user gets by default.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *selftest {
		os.Exit(selfTest(*seed, *spec))
	}
	w, ok := findWorkload(*workload)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	golden, err := loadReference(*reference)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, golden)
	res.Commit = *commit
	res.Seconds = *seconds
	printSummary(res)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if res.spans != nil {
		if err := writeSpans(base+".spans.tsv", res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := writeJSON(base+".json", res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.lastLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSummary prints every metric as median [q1, q3] with its unit.
func printSummary(res *result) {
	fmt.Printf("perfbench %s seed %d trace %d: %d reps, %d failed; GOMAXPROCS %d, nproc %d, %s, %s\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.GOMAXPROCS, res.NProc, res.CPU, res.GoVersion)
	for _, p := range res.Problems {
		fmt.Println("  FAIL:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.6g  [%.6g, %.6g] %s (n=%d)\n", n, m.Median, m.Q1, m.Q3, m.Unit, len(m.Samples))
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, if present.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
