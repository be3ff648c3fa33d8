package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/tcp"
)

// phases marks the boundaries of one rep from inside the program body.
// Setup ends when the first rank returns from the opening barrier (by
// then every rank has passed MPI Init and entered it); the measured
// phase ends when the first rank returns from the closing barrier.
// A forced GC runs at both boundaries, untimed: the first lets the live
// heap be read, and each phase starts from a collected heap, so a
// collection of the previous phase's garbage does not land in the
// short ping-pong teardown at random.
//
// A workload's loss applies to the measured phase only, so that setup
// and teardown do the same work on every seed. The cluster is built
// lossless and the opening boundary switches loss on. The closing one
// switches it off together with the queue limit, and every rank then
// sleeps, untimed, until one instant of virtual time well after the
// retransmissions still pending for packets lost in the measured phase
// are done: all ranks start teardown together on a quiet network. The
// queue limit goes because netsim's backlog check overflows on a pipe
// idle for more than about 9.2 s at 1 Gb/s and may then drop the
// packet, and the ping-pongs leave every pipe between non-partners
// idle for the whole measured phase. With either left in, the seed
// decided how many SHUTDOWN, FIN and barrier packets teardown repeated
// (with only the queue limit left in, 208 to 331, where it now always
// sends 240 on SCTP and 184 on TCP), and teardown_s, under a
// millisecond, followed the draw.
type phases struct {
	c    *core.Cluster
	t    *tracer // nil in untraced reps
	loss float64 // the workload's loss rate, for the measured phase

	setupEnd, runStart, runEnd, teardownStart time.Time
	vStart, vEnd                              int64
	netStart, netEnd                          netsim.Stats
	heapLive                                  uint64
	started, ended, drained                   bool

	// Traced reps only: per-rank RPI counters and transport totals at
	// the boundaries, for measured-phase deltas.
	rpiStart, rpiEnd   []rpi.Counters
	sctpStart, sctpEnd sctp.Stats
	tcpStart, tcpEnd   tcp.Stats

	checked, bad int64
	digest       uint64 // sum of the CRCs of every payload checked
}

func (ph *phases) barrier(pr *mpi.Process, comm *mpi.Comm) error {
	ph.t.open(pr.Rank(), kBarrier)
	err := comm.Barrier()
	ph.t.close(pr.Rank())
	return err
}

func (ph *phases) begin(pr *mpi.Process) {
	if ph.t != nil {
		ph.rpiStart[pr.Rank()] = copyCounters(pr.RPI().Counters())
	}
	if ph.started {
		return
	}
	ph.started = true
	ph.setupEnd = time.Now()
	if ph.loss > 0 {
		ph.c.Net.SetLoss(ph.loss)
	}
	ph.vStart = pr.P.Now().Nanoseconds()
	ph.netStart = ph.c.Net.Stats
	if ph.t != nil {
		ph.sctpStart, ph.tcpStart = ph.t.sctpTotals(), ph.t.tcpTotals()
		ph.t.measuring = true
	}
	runtime.GC()
	ph.heapLive = readUint(metricLiveHeap)
	ph.runStart = time.Now()
}

func (ph *phases) end(pr *mpi.Process) {
	if ph.t != nil {
		ph.rpiEnd[pr.Rank()] = copyCounters(pr.RPI().Counters())
	}
	if !ph.ended {
		ph.ended = true
		ph.runEnd = time.Now()
		ph.vEnd = pr.P.Now().Nanoseconds()
		ph.netEnd = ph.c.Net.Stats
		if ph.t != nil {
			ph.t.measuring = false
			ph.sctpEnd, ph.tcpEnd = ph.t.sctpTotals(), ph.t.tcpTotals()
		}
		if ph.loss > 0 {
			lp := ph.c.Net.DefaultLinkParamsValue()
			lp.LossRate, lp.QueueBytes = 0, 0
			ph.c.Net.SetDefaultLinkParams(lp)
		}
	}
	if ph.loss > 0 {
		pr.P.Sleep(time.Duration(ph.vEnd) + drainTime - pr.P.Now())
	}
	if ph.drained {
		return
	}
	ph.drained = true
	runtime.GC()
	ph.teardownStart = time.Now()
}

// drainTime is how long after the first rank leaves the closing barrier
// of a lossy measured phase all ranks wake: more than a retransmission
// timer backed off to its ceiling (60 s in SCTP, 64 s in TCP) takes to
// fire, several times over.
const drainTime = 10 * time.Minute

// check verifies one received payload against the CRC-32C its sender's
// input had.
func (ph *phases) check(got []byte, wantLen int, want uint32) {
	ph.checked++
	sum := crc32.Checksum(got, castagnoli)
	ph.digest += uint64(sum)
	if len(got) != wantLen || sum != want {
		ph.bad++
	}
}

func copyCounters(c rpi.Counters) rpi.Counters {
	out := make(rpi.Counters, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// fingerprint is everything a rep computes in virtual time. It must be
// identical across reps of one seed, traced or not, and across commits
// that claim only host-time changes.
type fingerprint struct {
	VirtualNS int64            `json:"virtual_ns"`         // measured phase
	ElapsedNS int64            `json:"elapsed_virtual_ns"` // whole rep
	PktsSent  int64            `json:"pkts_sent"`          // measured phase
	Net       netsim.Stats     `json:"net"`                // whole rep
	RPI       map[string]int64 `json:"rpi"`                // whole rep, summed over ranks
	Checked   int64            `json:"payloads_checked"`
	Digest    uint64           `json:"payload_digest"`
}

func (f fingerprint) String() string {
	b, _ := json.Marshal(f) // plain data: cannot fail
	return string(b)
}

// rep is what one cluster lifetime produced.
type rep struct {
	traced   bool
	e2e      map[string]float64
	layer    map[string]float64
	fp       fingerprint
	problems []string
	t        *tracer
}

func (r *rep) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

const (
	metricLiveHeap  = "/gc/heap/live:bytes"
	metricGCCycles  = "/gc/cycles/total:gc-cycles"
	metricGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	metricIdleCPU   = "/cpu/classes/idle:cpu-seconds"
	metricSchedLats = "/sched/latencies:seconds"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeSnap is the runtime/metrics state around a traced rep.
type runtimeSnap struct {
	gcCycles       uint64
	gcCPU, idleCPU float64
	sched          *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: metricGCCycles}, {Name: metricGCCPU}, {Name: metricIdleCPU}, {Name: metricSchedLats}}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.idleCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		r.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return r
}

// schedLatency returns the p-th percentile (0..1) of the scheduling
// latencies recorded between a and b, in ns, interpolated linearly
// inside the histogram bucket it falls in.
func schedLatency(a, b runtimeSnap, p float64) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.sched.Counts))
	for i := range delta {
		delta[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := p * float64(total)
	var cum float64
	for i, c := range delta {
		if c == 0 || cum+float64(c) < want {
			cum += float64(c)
			continue
		}
		lo, hi := math.Max(b.sched.Buckets[i], 0), b.sched.Buckets[i+1]
		if math.IsInf(hi, 1) {
			return lo * 1e9
		}
		return (lo + (hi-lo)*(want-cum)/float64(c)) * 1e9
	}
	return 0
}

// runRep runs one cluster lifetime of in. A traced rep installs the
// RPI wrapper and the probe hooks, profiles the CPU into prof and
// fills r.layer; an untraced rep installs nothing and fills r.e2e.
func runRep(in inputs, traced bool, prof map[string]int64) *rep {
	r := &rep{traced: traced}
	opts := in.options()
	ph := &phases{loss: opts.LossRate}
	opts.LossRate = 0
	var t *tracer
	if traced {
		t = newTracer(opts.Procs)
		r.t = t
		ph.t = t
		ph.rpiStart = make([]rpi.Counters, opts.Procs)
		ph.rpiEnd = make([]rpi.Counters, opts.Procs)
		opts.WrapRPI = t.wrap
		opts.SCTPProbe = t.sctpProbe()
		opts.TCPProbe = t.tcpProbe()
		opts.RMCProbe = t.rmcProbe()
		t.startClock()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var rt0, rt1 runtimeSnap
	var pbuf bytes.Buffer
	if traced {
		rt0 = readRuntime()
		if err := pprof.StartCPUProfile(&pbuf); err != nil {
			r.fail("cpu profile: %v", err)
		}
	}

	t0 := time.Now()
	t.open(-1, kBuild)
	c, err := core.NewCluster(opts)
	t.close(-1)
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		r.fail("NewCluster: %v", err)
		return r
	}
	ph.c = c
	if traced {
		t.k = c.Kernel
		c.Net.Trace = t.netTrace
	}
	c.Start(in.program(ph))
	report, err := c.Wait()
	tEnd := time.Now()

	if traced {
		pprof.StopCPUProfile()
		rt1 = readRuntime()
		if err := foldProfile(pbuf.Bytes(), prof); err != nil {
			r.fail("%v", err)
		}
	}
	runtime.ReadMemStats(&m1)
	live := netsim.LivePooledPackets()

	if err != nil {
		r.fail("run: %v", err)
	}
	if !ph.started || !ph.ended {
		r.fail("the program never reached both phase boundaries")
		return r
	}
	if ph.bad > 0 {
		r.fail("%d of %d payloads failed their CRC check", ph.bad, ph.checked)
	}
	if live != 0 {
		r.fail("%d pooled packets still live after Wait", live)
	}

	r.fp = fingerprint{
		VirtualNS: ph.vEnd - ph.vStart,
		ElapsedNS: report.Elapsed.Nanoseconds(),
		PktsSent:  ph.netEnd.PacketsSent - ph.netStart.PacketsSent,
		Net:       report.NetStats,
		RPI:       map[string]int64{},
		Checked:   ph.checked,
		Digest:    ph.digest,
	}
	for _, ctrs := range report.RPIStats {
		for k, v := range ctrs {
			r.fp.RPI[k] += v
		}
	}

	runS := ph.runEnd.Sub(ph.runStart).Seconds()
	r.e2e = map[string]float64{
		"setup_s":         ph.setupEnd.Sub(t0).Seconds(),
		"run_s":           runS,
		"teardown_s":      tEnd.Sub(ph.teardownStart).Seconds(),
		"sim_pkts_per_s":  float64(r.fp.PktsSent) / runS,
		"alloc_bytes":     float64(m1.TotalAlloc - m0.TotalAlloc),
		"allocs":          float64(m1.Mallocs - m0.Mallocs),
		"heap_live_bytes": float64(ph.heapLive),
	}
	if traced {
		r.layer = layerMetrics(t, ph, r.fp.RPI, rt0, rt1, live)
	}
	return r
}

// layerMetrics computes one traced rep's per-layer numbers. Counts and
// host times cover the measured phase, except the setup ones
// (mpi.init_s, core.build_s, sctp.assocs_opened from the whole-rep RPI
// counters in whole).
func layerMetrics(t *tracer, ph *phases, whole map[string]int64, rt0, rt1 runtimeSnap, live int64) map[string]float64 {
	m := map[string]float64{}
	rpiDelta := map[string]int64{}
	for rank := range ph.rpiEnd {
		for k, v := range ph.rpiEnd[rank] {
			rpiDelta[k] += v - ph.rpiStart[rank][k]
		}
	}
	host := func(k spanKind) float64 { return float64(t.kinds[k].hostNS) / 1e9 }
	calls := func(k spanKind) float64 { return float64(t.kinds[k].calls) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["sim.virtual_ns"] = float64(ph.vEnd - ph.vStart)
	m["rpi.advance.parks"] = float64(t.parks)
	m["runtime.sched_lat_p50_ns"] = schedLatency(rt0, rt1, 0.50)
	m["runtime.sched_lat_p99_ns"] = schedLatency(rt0, rt1, 0.99)

	m["rpi.send.calls"] = calls(kSend)
	m["rpi.send.host_s"] = host(kSend)
	m["rpi.advance.calls"] = calls(kAdvance)
	m["rpi.advance.host_s"] = host(kAdvance)
	m["rpi.poll_passes"] = float64(rpiDelta["poll_passes"])
	m["rpi.poll_events"] = float64(rpiDelta["poll_events"])
	m["rpi.events_per_pass"] = ratio(m["rpi.poll_events"], m["rpi.poll_passes"])
	m["rpi.msgs_sent"] = float64(rpiDelta["msgs_sent"])
	m["rpi.bytes_sent"] = float64(rpiDelta["bytes_sent"])
	m["rpi.msgs_replayed"] = float64(rpiDelta["msgs_replayed"])
	m["rpi.dups_suppressed"] = float64(rpiDelta["dups_suppressed"])

	m["mpi.deliver.calls"] = calls(kDeliver)
	m["mpi.deliver.host_s"] = host(kDeliver)
	for _, k := range []spanKind{kP2P, kBcast, kAllreduce} {
		name := kindNames[k]
		m[name+".calls"] = calls(k)
		m[name+".host_s"] = host(k)
		m[name+".vlat_p50_ns"] = float64(percentile(t.kinds[k].vlat, 50))
		m[name+".vlat_p99_ns"] = float64(percentile(t.kinds[k].vlat, 99))
	}
	if t.initFirst >= 0 {
		m["mpi.init_s"] = float64(t.initLast-t.initFirst) / 1e9
	}
	m["core.build_s"] = host(kBuild)

	s0, s1 := ph.sctpStart, ph.sctpEnd
	m["sctp.chunks_sent"] = float64(s1.ChunksSent - s0.ChunksSent)
	m["sctp.retransmits"] = float64(s1.Retransmits - s0.Retransmits)
	m["sctp.fast_retransmits"] = float64(s1.FastRetransmits - s0.FastRetransmits)
	m["sctp.t3_expiries"] = float64(s1.T3Expiries - s0.T3Expiries)
	m["sctp.sacks_sent"] = float64(s1.SacksSent - s0.SacksSent)
	m["sctp.retransmit_ratio"] = ratio(m["sctp.retransmits"], m["sctp.chunks_sent"])
	m["sctp.assocs_opened"] = float64(whole["assocs_up"])

	c0, c1 := ph.tcpStart, ph.tcpEnd
	m["tcp.segs_sent"] = float64(c1.SegsSent - c0.SegsSent)
	m["tcp.retransmits"] = float64(c1.Retransmits - c0.Retransmits)
	m["tcp.rtos"] = float64(c1.RTOs - c0.RTOs)
	m["tcp.dup_acks"] = float64(c1.DupAcksRcvd - c0.DupAcksRcvd)
	m["tcp.retransmit_ratio"] = ratio(m["tcp.retransmits"], m["tcp.segs_sent"])

	n0, n1 := ph.netStart, ph.netEnd
	m["netsim.pkts_sent"] = float64(n1.PacketsSent - n0.PacketsSent)
	m["netsim.bytes_sent"] = float64(n1.BytesSent - n0.BytesSent)
	m["netsim.pkts_lost"] = float64(n1.PacketsLost - n0.PacketsLost)
	m["netsim.pkts_queue_dropped"] = float64(n1.PacketsQueued - n0.PacketsQueued)
	m["netsim.mcast_deliveries"] = float64(n1.McastDeliveries - n0.McastDeliveries)
	m["netsim.pkts_recv"] = float64(t.netRecv)
	m["netsim.pooled_live_end"] = float64(live)

	m["rmcast.ops"] = float64(t.rmcOps)
	m["rmcast.chunks_accepted"] = float64(t.rmcAccepted)
	m["rmcast.repairs"] = float64(t.rmcRepairs)
	m["rmcast.fallbacks"] = float64(t.rmcFallbacks)
	m["rmcast.repair_ratio"] = ratio(float64(t.rmcRepairs), float64(t.rmcRepairs+t.rmcFirstSent))

	m["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	m["runtime.gc_cpu_s"] = rt1.gcCPU - rt0.gcCPU
	m["runtime.idle_cpu_s"] = rt1.idleCPU - rt0.idleCPU

	m["trace.spans"] = float64(t.nextID)
	return m
}

// reference holds known-good virtual results: workload -> seed -> values.
type reference map[string]map[string]struct {
	VirtualNS int64 `json:"virtual_ns"`
	PktsSent  int64 `json:"pkts_sent"`
}

func loadReference(path string) (reference, error) {
	if path == "" {
		return nil, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}
