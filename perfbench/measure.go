package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the simulator sees, from untraced reps.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"teardown_s", "s"},
	{"sim_pkts_per_s", "1/s"},
	{"alloc_bytes", "bytes"},
	{"allocs", "count"},
	{"heap_live_bytes", "bytes"},
}

// layerMetricDefs are the per-layer numbers of the traced reps. Host
// times of calls that can park the calling process include the time
// other processes ran meanwhile; their unit says so. Virtual times,
// which the simulation fixes exactly, have the unit vns.
var layerMetricDefs = func() []metricDef {
	defs := []metricDef{
		{"sim.virtual_ns", "vns"},
		{"rpi.advance.parks", "count"},
		{"runtime.sched_lat_p50_ns", "ns"},
		{"runtime.sched_lat_p99_ns", "ns"},
		{"rpi.send.calls", "count"},
		{"rpi.send.host_s", "s_inclusive"},
		{"rpi.advance.calls", "count"},
		{"rpi.advance.host_s", "s_inclusive"},
		{"rpi.poll_passes", "count"},
		{"rpi.poll_events", "count"},
		{"rpi.events_per_pass", "ratio"},
		{"rpi.msgs_sent", "count"},
		{"rpi.bytes_sent", "bytes"},
		{"rpi.msgs_replayed", "count"},
		{"rpi.dups_suppressed", "count"},
		{"mpi.deliver.calls", "count"},
		{"mpi.deliver.host_s", "s_inclusive"},
	}
	for _, k := range []spanKind{kP2P, kBcast, kAllreduce} {
		n := kindNames[k]
		defs = append(defs,
			metricDef{n + ".calls", "count"},
			metricDef{n + ".host_s", "s_inclusive"},
			metricDef{n + ".vlat_p50_ns", "vns"},
			metricDef{n + ".vlat_p99_ns", "vns"})
	}
	defs = append(defs, []metricDef{
		{"mpi.init_s", "s"},
		{"core.build_s", "s"},
		{"sctp.chunks_sent", "count"},
		{"sctp.retransmits", "count"},
		{"sctp.fast_retransmits", "count"},
		{"sctp.t3_expiries", "count"},
		{"sctp.sacks_sent", "count"},
		{"sctp.retransmit_ratio", "ratio"},
		{"sctp.assocs_opened", "count"},
		{"tcp.segs_sent", "count"},
		{"tcp.retransmits", "count"},
		{"tcp.rtos", "count"},
		{"tcp.dup_acks", "count"},
		{"tcp.retransmit_ratio", "ratio"},
		{"netsim.pkts_sent", "count"},
		{"netsim.bytes_sent", "bytes"},
		{"netsim.pkts_lost", "count"},
		{"netsim.pkts_queue_dropped", "count"},
		{"netsim.mcast_deliveries", "count"},
		{"netsim.pkts_recv", "count"},
		{"netsim.pooled_live_end", "count"},
		{"rmcast.ops", "count"},
		{"rmcast.chunks_accepted", "count"},
		{"rmcast.repairs", "count"},
		{"rmcast.fallbacks", "count"},
		{"rmcast.repair_ratio", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.idle_cpu_s", "s"},
		{"trace.spans", "count"},
		{"trace.overhead_run_s", "s"},
		{"trace.overhead_ratio", "ratio"},
	}...)
	for _, c := range cpuClasses {
		defs = append(defs, metricDef{"cpu." + c, "share"})
	}
	return defs
}()

const (
	minReps = 3 // per kind of rep, however long a rep takes
	// maxMeasure stops adding reps even if minReps is not reached, so a
	// run always ends well inside its time limit.
	maxMeasure = 100 * time.Second
)

type metricResult struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// result is one run: the machine it ran on, every rep's outcome, and
// each metric's per-rep samples with their median and quartiles.
type result struct {
	Workload     string                  `json:"workload"`
	Seed         int64                   `json:"seed"`
	Trace        int                     `json:"trace"`
	Seconds      float64                 `json:"run_seconds"`
	Commit       string                  `json:"commit"`
	GoVersion    string                  `json:"go_version"`
	GOMAXPROCS   int                     `json:"gomaxprocs"`
	NProc        int                     `json:"nproc"`
	CPU          string                  `json:"cpu_model"`
	Attempted    int                     `json:"attempted"`
	Failed       int                     `json:"failed"`
	FailRatio    float64                 `json:"fail_ratio"`
	RepsUntraced int                     `json:"reps_untraced"`
	RepsTraced   int                     `json:"reps_traced"`
	Reference    fingerprint             `json:"reference"`
	Problems     []string                `json:"problems,omitempty"`
	CPUSamples   map[string]int64        `json:"cpu_samples,omitempty"`
	Metrics      map[string]metricResult `json:"metrics"`

	spans []span // the last traced rep's, for the span file
}

// measure runs the reference rep and then timed reps for dur.
func measure(w workloadSpec, seed int64, dur time.Duration, trace bool, golden reference) *result {
	res := &result{
		Workload:   w.name,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Metrics:    map[string]metricResult{},
	}
	if trace {
		res.Trace = 1
	}
	in := w.make(seed, false)
	prof := map[string]int64{}

	// The reference rep warms the heap and the caches, and fixes the
	// virtual results every timed rep must reproduce.
	ref := runRep(in, false, prof)
	if g, ok := golden[w.name][fmt.Sprint(seed)]; ok && len(ref.problems) == 0 &&
		(g.VirtualNS != ref.fp.VirtualNS || g.PktsSent != ref.fp.PktsSent) {
		ref.fail("virtual_ns %d and pkts_sent %d differ from the recorded reference %d and %d",
			ref.fp.VirtualNS, ref.fp.PktsSent, g.VirtualNS, g.PktsSent)
	}
	res.Reference = ref.fp
	res.record(ref, "reference rep")

	var untraced, traced []*rep
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= maxMeasure || (el >= dur && len(untraced) >= minReps && (!trace || len(traced) >= minReps)) {
			break
		}
		r := runRep(in, trace && i%2 == 0, prof)
		if len(r.problems) == 0 && r.fp.String() != ref.fp.String() {
			r.fail("virtual results differ from the reference rep:\n    rep %s\n    ref %s", r.fp, ref.fp)
		}
		if !res.record(r, fmt.Sprintf("rep %d", i+1)) {
			continue
		}
		if r.traced {
			traced = append(traced, r)
			// Keep only the last rep's spans: the tracer itself holds
			// the rep's whole cluster through its probe maps.
			res.spans, r.t = r.t.spans, nil
		} else {
			untraced = append(untraced, r)
		}
	}
	res.RepsUntraced, res.RepsTraced = len(untraced), len(traced)
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}

	for _, d := range e2eMetrics {
		res.add(d, untraced, func(r *rep) float64 { return r.e2e[d.name] })
	}
	if !trace {
		return res
	}
	for _, d := range layerMetricDefs {
		res.add(d, traced, func(r *rep) float64 { return r.layer[d.name] })
	}
	tracedRun := median(samples(traced, func(r *rep) float64 { return r.e2e["run_s"] }))
	plainRun := res.Metrics["run_s"].Median
	res.set("trace.overhead_run_s", "s", tracedRun-plainRun)
	if plainRun > 0 {
		res.set("trace.overhead_ratio", "ratio", (tracedRun-plainRun)/plainRun)
	}
	var total int64
	for _, n := range prof {
		total += n
	}
	res.CPUSamples = prof
	for _, c := range cpuClasses {
		share := 0.0
		if total > 0 {
			share = float64(prof[c]) / float64(total)
		}
		res.set("cpu."+c, "share", share)
	}
	return res
}

// record counts one rep and its problems; it reports whether the rep
// passed its checks.
func (res *result) record(r *rep, label string) bool {
	res.Attempted++
	if len(r.problems) == 0 {
		return true
	}
	res.Failed++
	for _, p := range r.problems {
		res.Problems = append(res.Problems, label+": "+p)
	}
	return false
}

func samples(reps []*rep, f func(*rep) float64) []float64 {
	xs := make([]float64, 0, len(reps))
	for _, r := range reps {
		xs = append(xs, f(r))
	}
	return xs
}

func (res *result) add(d metricDef, reps []*rep, f func(*rep) float64) {
	xs := samples(reps, f)
	q1, med, q3 := quartiles(xs)
	res.Metrics[d.name] = metricResult{Unit: d.unit, Median: med, Q1: q1, Q3: q3, Samples: xs}
}

func (res *result) set(name, unit string, v float64) {
	res.Metrics[name] = metricResult{Unit: unit, Median: v, Q1: v, Q3: v, Samples: []float64{v}}
}

// lastLine is the final line of output: the rep counts and the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func (res *result) lastLine() map[string]any {
	defs := e2eMetrics
	if res.Trace == 1 {
		defs = layerMetricDefs
	}
	ms := map[string]any{}
	for _, d := range defs {
		ms[d.name] = map[string]any{"value": res.Metrics[d.name].Median, "unit": d.unit}
	}
	return map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   ms,
	}
}

// selfTest runs every workload at reduced length, once untraced and
// once traced, and requires identical virtual results: tracing must
// not perturb the simulation. With spec set it also checks that the
// metric names this program prints are the ones BENCHMARK.json lists.
func selfTest(seed int64, spec string) int {
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Printf("  FAIL: "+format+"\n", args...)
	}
	for _, w := range workloads {
		fmt.Printf("selftest %s seed %d\n", w.name, seed)
		in := w.make(seed, true)
		prof := map[string]int64{}
		plain := runRep(in, false, prof)
		traced := runRep(in, true, prof)
		for _, r := range []*rep{plain, traced} {
			for _, p := range r.problems {
				fail("traced=%v: %s", r.traced, p)
			}
		}
		if a, b := plain.fp.String(), traced.fp.String(); a != b {
			fail("tracing changed the virtual results:\n    untraced %s\n    traced   %s", a, b)
		} else {
			fmt.Printf("  identical: %s\n", a)
		}
		var total int64
		for _, n := range prof {
			total += n
		}
		if total == 0 {
			fail("the traced rep recorded no CPU samples")
		}
		for _, d := range layerMetricDefs {
			if _, ok := traced.layer[d.name]; !ok && !computedAtEnd(d.name) {
				fail("the traced rep did not compute %s", d.name)
			}
		}
	}
	if spec != "" {
		if err := checkSpec(spec); err != nil {
			fail("%v", err)
		}
	}
	if failed {
		fmt.Println("selftest: FAIL")
		return 1
	}
	fmt.Println("selftest: OK")
	return 0
}

// computedAtEnd reports whether a per-layer metric is derived from all
// the traced reps together rather than from each one.
func computedAtEnd(name string) bool {
	return name == "trace.overhead_run_s" || name == "trace.overhead_ratio" || strings.HasPrefix(name, "cpu.")
}

// checkSpec compares BENCHMARK.json's metric lists with this program's.
func checkSpec(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(what string, want []metricDef, got []struct{ Name, Unit string }) error {
		var a, b []string
		for _, d := range want {
			a = append(a, d.name+" "+d.unit)
		}
		for _, d := range got {
			b = append(b, d.Name+" "+d.Unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			return fmt.Errorf("%s %s lists %v, the program prints %v", path, what, b, a)
		}
		return nil
	}
	if err := same("end_to_end", e2eMetrics, spec.EndToEnd); err != nil {
		return err
	}
	return same("per_layer", layerMetricDefs, spec.PerLayer)
}
