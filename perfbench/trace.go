package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/mpi/rmcast"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/seqnum"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// spanKind names a boundary the traced run times from outside the
// program: around a public call into one layer.
type spanKind uint8

const (
	kBuild     spanKind = iota // core.NewCluster
	kInit                      // RPI.Init beneath MPI Init
	kSend                      // RPI.Send
	kAdvance                   // RPI.Advance
	kDeliver                   // the RPI's delivery callback: MPI matching
	kP2P                       // Comm.Send / Comm.Recv
	kBcast                     // Comm.Bcast
	kAllreduce                 // Comm.Allreduce
	kBarrier                   // Comm.Barrier at the phase boundaries
	numKinds
)

var kindNames = [numKinds]string{
	kBuild: "core.build", kInit: "mpi.init", kSend: "rpi.send", kAdvance: "rpi.advance",
	kDeliver: "mpi.deliver", kP2P: "mpi.p2p", kBcast: "mpi.bcast", kAllreduce: "mpi.allreduce",
	kBarrier: "mpi.barrier",
}

// span is one timed call: host times are ns since the rep began,
// virtual times are the kernel clock. Rank -1 is the job itself.
type span struct {
	id, parent         int64
	rank               int32
	kind               spanKind
	hostStart, hostEnd int64
	vStart, vEnd       int64
}

type frame struct {
	id, hostStart, vStart int64
	kind                  spanKind
}

type kindStats struct {
	calls  int64
	hostNS int64
	vlat   []int64 // virtual durations, kept for the MPI call kinds
}

// maxSpans caps the spans one rep keeps for the span file; the
// per-kind totals count every span.
const maxSpans = 200_000

// tracer records spans around the public calls into each layer and
// counts protocol events through the stacks' probe hooks. Every method
// runs on a simulation process or the kernel loop, which the kernel
// serializes, so no locking is needed. A nil *tracer records nothing:
// the untraced runs pass nil.
type tracer struct {
	epoch  time.Time
	k      *sim.Kernel
	nextID int64
	stacks [][]frame // index rank+1; 0 is the job
	spans  []span
	kinds  [numKinds]kindStats

	measuring bool // between the phase boundaries
	parks     int64
	initFirst int64 // host ns of the first Init call
	initLast  int64 // host ns the last Init returned

	assocs map[*sctp.Assoc]struct{}
	conns  map[*tcp.Conn]struct{}

	rmcOps, rmcAccepted, rmcRepairs, rmcFallbacks, rmcFirstSent int64
	rmcRoot                                                     map[uint64]int  // op -> root
	rmcCounted                                                  map[uint64]bool // ops in rmcFirstSent

	netRecv int64
}

func newTracer(procs int) *tracer {
	return &tracer{
		stacks:     make([][]frame, procs+1),
		assocs:     map[*sctp.Assoc]struct{}{},
		conns:      map[*tcp.Conn]struct{}{},
		rmcRoot:    map[uint64]int{},
		rmcCounted: map[uint64]bool{},
		initFirst:  -1,
	}
}

// startClock sets the host time span times count from. It is kept out
// of newTracer so the tracer, which the simulation calls into, is not
// itself built from a wall-clock value.
func (t *tracer) startClock() { t.epoch = time.Now() }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) vnow() int64 {
	if t.k == nil {
		return 0
	}
	return t.k.Now().Nanoseconds()
}

// open starts a span of kind on rank; its parent is the span rank has
// open, if any.
func (t *tracer) open(rank int, kind spanKind) {
	if t == nil {
		return
	}
	t.nextID++
	t.stacks[rank+1] = append(t.stacks[rank+1], frame{id: t.nextID, hostStart: t.now(), vStart: t.vnow(), kind: kind})
}

// close ends the innermost span open on rank.
func (t *tracer) close(rank int) {
	if t == nil {
		return
	}
	end, vEnd := t.now(), t.vnow()
	st := t.stacks[rank+1]
	f := st[len(st)-1]
	st = st[:len(st)-1]
	t.stacks[rank+1] = st
	var parent int64
	if len(st) > 0 {
		parent = st[len(st)-1].id
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: f.id, parent: parent, rank: int32(rank), kind: f.kind,
			hostStart: f.hostStart, hostEnd: end, vStart: f.vStart, vEnd: vEnd})
	}
	switch f.kind {
	case kBuild:
	case kInit:
		if t.initFirst < 0 || f.hostStart < t.initFirst {
			t.initFirst = f.hostStart
		}
		t.initLast = end
		return
	default:
		if !t.measuring {
			return
		}
	}
	ks := &t.kinds[f.kind]
	ks.calls++
	ks.hostNS += end - f.hostStart
	if f.kind >= kP2P {
		ks.vlat = append(ks.vlat, vEnd-f.vStart)
	}
}

// writeSpans writes spans as tab-separated values.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\trank\tlayer\tname\thost_start_ns\thost_end_ns\tvirtual_start_ns\tvirtual_end_ns")
	for _, s := range spans {
		name := kindNames[s.kind]
		layer, _, _ := strings.Cut(name, ".")
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n",
			s.id, s.parent, s.rank, layer, name, s.hostStart, s.hostEnd, s.vStart, s.vEnd)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap is the core.Options.WrapRPI hook.
func (t *tracer) wrap(rank int, m rpi.RPI) rpi.RPI { return &tracedRPI{inner: m, rank: rank, t: t} }

// tracedRPI times every call the middleware makes into its RPI module
// and every delivery the module makes back. It forwards unchanged.
type tracedRPI struct {
	inner rpi.RPI
	rank  int
	t     *tracer
}

func (w *tracedRPI) Init(p *sim.Proc) error {
	w.t.open(w.rank, kInit)
	err := w.inner.Init(p)
	w.t.close(w.rank)
	return err
}

func (w *tracedRPI) SetDelivery(d rpi.Delivery) {
	w.inner.SetDelivery(func(env rpi.Envelope, body []byte) {
		w.t.open(w.rank, kDeliver)
		d(env, body)
		w.t.close(w.rank)
	})
}

func (w *tracedRPI) Send(dest int, env rpi.Envelope, body []byte, onQueued func()) {
	w.t.open(w.rank, kSend)
	w.inner.Send(dest, env, body, onQueued)
	w.t.close(w.rank)
}

func (w *tracedRPI) Advance(p *sim.Proc, block bool) error {
	if block && w.t.measuring {
		w.t.parks++
	}
	w.t.open(w.rank, kAdvance)
	err := w.inner.Advance(p, block)
	w.t.close(w.rank)
	return err
}

func (w *tracedRPI) Finalize(p *sim.Proc)   { w.inner.Finalize(p) }
func (w *tracedRPI) Abort(p *sim.Proc)      { w.inner.Abort(p) }
func (w *tracedRPI) Counters() rpi.Counters { return w.inner.Counters() }

// sctpProbe learns every association from its first delivery or
// congestion event, so the phase boundaries can sum Assoc.Statistics.
func (t *tracer) sctpProbe() *sctp.Probe {
	return &sctp.Probe{Deliver: t.sctpDeliver, CumTSN: t.sctpCumTSN, Cwnd: t.sctpCwnd}
}

func (t *tracer) sctpDeliver(a *sctp.Assoc, _, _ uint16) { t.assocs[a] = struct{}{} }
func (t *tracer) sctpCumTSN(a *sctp.Assoc, _ seqnum.V)   { t.assocs[a] = struct{}{} }
func (t *tracer) sctpCwnd(a *sctp.Assoc, _ netsim.Addr, _, _, _, _, _ int) {
	t.assocs[a] = struct{}{}
}

// tcpProbe learns every connection the same way, for Conn.Stats.
func (t *tracer) tcpProbe() *tcp.Probe {
	return &tcp.Probe{Deliver: t.tcpDeliver, Cwnd: t.tcpCwnd}
}

func (t *tracer) tcpDeliver(c *tcp.Conn, _ seqnum.V)     { t.conns[c] = struct{}{} }
func (t *tracer) tcpCwnd(c *tcp.Conn, _, _, _, _, _ int) { t.conns[c] = struct{}{} }

func (t *tracer) sctpTotals() sctp.Stats {
	var s sctp.Stats
	for a := range t.assocs {
		x := a.Statistics()
		s.ChunksSent += x.ChunksSent
		s.Retransmits += x.Retransmits
		s.FastRetransmits += x.FastRetransmits
		s.T3Expiries += x.T3Expiries
		s.SacksSent += x.SacksSent
	}
	return s
}

func (t *tracer) tcpTotals() tcp.Stats {
	var s tcp.Stats
	for c := range t.conns {
		s.SegsSent += c.Stats.SegsSent
		s.Retransmits += c.Stats.Retransmits
		s.RTOs += c.Stats.RTOs
		s.DupAcksRcvd += c.Stats.DupAcksRcvd
	}
	return s
}

// rmcProbe counts reliable-multicast operations, accepted chunks,
// repairs and fallbacks to the tree.
func (t *tracer) rmcProbe() *rmcast.Probe {
	return &rmcast.Probe{Enter: t.rmcEnter, Accept: t.rmcAccept, Repair: t.rmcRepair, Complete: t.rmcComplete}
}

func (t *tracer) rmcEnter(rank int, op uint64, _ uint32, root int) {
	if rank == root {
		t.rmcOps++
		t.rmcRoot[op] = root
	}
}

func (t *tracer) rmcAccept(_ int, op uint64, _, total int) {
	t.rmcAccepted++
	if !t.rmcCounted[op] {
		t.rmcCounted[op] = true
		t.rmcFirstSent += int64(total)
	}
}

func (t *tracer) rmcRepair(int, uint64, int) { t.rmcRepairs++ }

func (t *tracer) rmcComplete(rank int, op uint64, _ uint32, fallback bool, _ uint64) {
	if root, ok := t.rmcRoot[op]; ok && fallback && rank == root {
		t.rmcFallbacks++
	}
}

// netTrace is the Net.Trace hook: it counts receptions, which
// Net.Stats does not.
func (t *tracer) netTrace(ev string, _ *netsim.Packet) {
	if !t.measuring {
		return
	}
	if ev == "recv" || ev == "mrecv" {
		t.netRecv++
	}
}
