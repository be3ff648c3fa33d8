package main

import (
	"hash/crc32"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim/topo"
)

// inputs is one workload's generated input set: everything a rep needs
// is derived from the seed once, before any rep is timed.
type inputs interface {
	options() core.Options
	program(ph *phases) core.Program
}

// workloadSpec names a workload and builds its inputs from a seed; short
// selects the reduced length the self-test runs.
type workloadSpec struct {
	name string
	make func(seed int64, short bool) inputs
}

var workloads = []workloadSpec{
	{"pingpong-sctp-lossy", func(seed int64, short bool) inputs { return newPingPong(core.SCTP, seed, short) }},
	{"pingpong-tcp-lossy", func(seed int64, short bool) inputs { return newPingPong(core.TCP, seed, short) }},
	{"fattree-collectives-256", newFatTree},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// poolBytes is the seeded byte pool every payload is cut from.
const poolBytes = 1 << 20

func newPool(rng *rand.Rand) []byte {
	pool := make([]byte, poolBytes)
	rng.Read(pool)
	return pool
}

// ppSizes is the ping-pong message-size cycle: the smallest size, an
// eager message and a rendezvous message (Figure 8 and Table 1 of the
// paper, on either side of the 64 KiB eager limit).
var ppSizes = [...]int{64, 30 << 10, 300 << 10}

const (
	ppProcs = 8
	ppLoss  = 0.02
	ppIters = 300
)

// pingPong is the lossy MPBench ping-pong: ranks r and r^1 exchange a
// message per iteration, closed loop, on the full-mesh testbed.
type pingPong struct {
	transport core.Transport
	seed      int64
	iters     int
	pool      []byte
	offs      [][]int    // [rank][iter]: payload offset into pool
	want      [][]uint32 // [rank][iter]: CRC-32C of that payload
}

func newPingPong(tr core.Transport, seed int64, short bool) inputs {
	w := &pingPong{transport: tr, seed: seed, iters: ppIters}
	if short {
		w.iters = 30
	}
	rng := rand.New(rand.NewSource(seed))
	w.pool = newPool(rng)
	w.offs = make([][]int, ppProcs)
	w.want = make([][]uint32, ppProcs)
	for r := range w.offs {
		w.offs[r] = make([]int, w.iters)
		w.want[r] = make([]uint32, w.iters)
		for i := range w.offs[r] {
			n := ppSizes[i%len(ppSizes)]
			off := rng.Intn(poolBytes - n + 1)
			w.offs[r][i] = off
			w.want[r][i] = crc32.Checksum(w.pool[off:off+n], castagnoli)
		}
	}
	return w
}

func (w *pingPong) options() core.Options {
	return core.Options{Procs: ppProcs, Transport: w.transport, Seed: w.seed, LossRate: ppLoss}
}

func (w *pingPong) program(ph *phases) core.Program {
	return func(pr *mpi.Process, comm *mpi.Comm) error {
		me := comm.Rank()
		peer := me ^ 1
		sbuf := make([]byte, ppSizes[len(ppSizes)-1])
		rbuf := make([]byte, len(sbuf))
		if err := ph.barrier(pr, comm); err != nil {
			return err
		}
		ph.begin(pr)
		t := ph.t
		for i := 0; i < w.iters; i++ {
			n := ppSizes[i%len(ppSizes)]
			for turn := 0; turn < 2; turn++ {
				if (me%2 == 0) == (turn == 0) {
					// Refill the one send buffer every time, so a
					// transport that kept a reference to it instead
					// of a copy delivers the wrong bytes.
					copy(sbuf[:n], w.pool[w.offs[me][i]:])
					t.open(me, kP2P)
					err := comm.Send(peer, 0, sbuf[:n])
					t.close(me)
					if err != nil {
						return err
					}
					continue
				}
				t.open(me, kP2P)
				st, err := comm.Recv(peer, 0, rbuf[:n])
				t.close(me)
				if err != nil {
					return err
				}
				ph.check(rbuf[:st.Count], n, w.want[peer][i])
			}
		}
		if err := ph.barrier(pr, comm); err != nil {
			return err
		}
		ph.end(pr)
		return nil
	}
}

const (
	ftProcs  = 256
	ftBytes  = 8 << 10
	ftRounds = 16
)

// fatTree is the collective workload: 256 ranks on a generated
// fat-tree, rounds of an 8 KiB Bcast from a rotating root and an 8 KiB
// Allreduce, alternating the tree and multicast algorithm families. The
// seed draws the payloads and the Allreduce contributions.
type fatTree struct {
	seed       int64
	rounds     int
	pool       []byte
	root       []int    // [round]
	bcastOff   []int    // [round]
	bcastWant  []uint32 // [round]
	contribOff [][]int  // [round][rank]
	sumWant    []uint32 // [round]: CRC-32C of the expected Allreduce result
}

func newFatTree(seed int64, short bool) inputs {
	w := &fatTree{seed: seed, rounds: ftRounds}
	if short {
		w.rounds = 2
	}
	rng := rand.New(rand.NewSource(seed))
	w.pool = newPool(rng)
	acc := make([]byte, ftBytes)
	for k := 0; k < w.rounds; k++ {
		// The root steps 16 ranks per round, spreading the roots over
		// the whole tree, the same on every seed: which ranks are roots
		// changes how much state teardown releases, and a seed-dependent
		// amount would decide whether a collection lands in teardown_s.
		w.root = append(w.root, k*ftProcs/ftRounds%ftProcs)
		off := rng.Intn(poolBytes - ftBytes + 1)
		w.bcastOff = append(w.bcastOff, off)
		w.bcastWant = append(w.bcastWant, crc32.Checksum(w.pool[off:off+ftBytes], castagnoli))
		offs := make([]int, ftProcs)
		for r := range offs {
			offs[r] = rng.Intn(poolBytes - ftBytes + 1)
			src := w.pool[offs[r] : offs[r]+ftBytes]
			if r == 0 {
				copy(acc, src)
			} else {
				mpi.OpSumI64(acc, src)
			}
		}
		w.contribOff = append(w.contribOff, offs)
		w.sumWant = append(w.sumWant, crc32.Checksum(acc, castagnoli))
	}
	return w
}

func (w *fatTree) options() core.Options {
	return core.Options{Procs: ftProcs, Transport: core.SCTP, Seed: w.seed, Topo: &topo.Config{Kind: topo.FatTree}}
}

func (w *fatTree) program(ph *phases) core.Program {
	return func(pr *mpi.Process, comm *mpi.Comm) error {
		me := comm.Rank()
		data := make([]byte, ftBytes)
		vec := make([]byte, ftBytes)
		if err := ph.barrier(pr, comm); err != nil {
			return err
		}
		ph.begin(pr)
		t := ph.t
		for k := 0; k < w.rounds; k++ {
			if k%2 == 0 {
				comm.SetAlg(mpi.AlgTree)
			} else {
				comm.SetAlg(mpi.AlgMulticast)
			}
			root := w.root[k]
			if me == root {
				copy(data, w.pool[w.bcastOff[k]:])
			}
			t.open(me, kBcast)
			err := comm.Bcast(root, data)
			t.close(me)
			if err != nil {
				return err
			}
			ph.check(data, ftBytes, w.bcastWant[k])
			copy(vec, w.pool[w.contribOff[k][me]:])
			t.open(me, kAllreduce)
			err = comm.Allreduce(vec, mpi.OpSumI64)
			t.close(me)
			if err != nil {
				return err
			}
			ph.check(vec, ftBytes, w.sumWant[k])
		}
		comm.SetAlg(mpi.AlgTree)
		if err := ph.barrier(pr, comm); err != nil {
			return err
		}
		ph.end(pr)
		return nil
	}
}
