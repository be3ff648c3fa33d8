package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuClasses are the buckets a CPU sample's leaf function folds into,
// reported as cpu.<class> shares of all samples. The repo's packages
// each get their own bucket; the Go runtime is split by what the leaf
// function does, because scheduling, allocation and collection move
// with different changes.
var cpuClasses = []string{
	"sim", "netsim", "topo", "sctp", "tcp", "wire", "rpi", "mpi", "rmcast", "core",
	"bench", "runtime_sched", "runtime_malloc", "runtime_gc", "runtime_map", "memmove", "runtime_other", "other",
}

// repoClasses maps a module-relative package to its bucket. Packages
// not listed (seqnum, daemon, ...) fold into "other".
var repoClasses = map[string]string{
	"internal/sim":             "sim",
	"internal/netsim":          "netsim",
	"internal/netsim/topo":     "topo",
	"internal/sctp":            "sctp",
	"internal/tcp":             "tcp",
	"internal/wire":            "wire",
	"internal/transport":       "rpi",
	"internal/mpi/rpi":         "rpi",
	"internal/mpi/sctprpi":     "rpi",
	"internal/mpi/sctp1to1rpi": "rpi",
	"internal/mpi/tcprpi":      "rpi",
	"internal/mpi":             "mpi",
	"internal/mpi/rmcast":      "rmcast",
	"internal/core":            "core",
	"perfbench":                "bench",
}

// stdClasses gives standard-library packages that a single layer of the
// repo uses the bucket of that layer.
var stdClasses = map[string]string{
	"container/heap": "sim",  // the kernel's event queue
	"sync":           "wire", // sync.Pool backs the wire buffer pool
}

// runtimeClasses sorts runtime leaf functions by name prefix; the first
// match wins and anything unmatched is runtime_other.
var runtimeClasses = []struct{ prefix, class string }{
	{"runtime.memmove", "memmove"},
	{"runtime.memclr", "memmove"},
	{"runtime.typedmemmove", "memmove"},
	{"runtime.typedmemclr", "memmove"},
	{"runtime.typedslicecopy", "memmove"},

	{"runtime.mallocgc", "runtime_malloc"},
	{"runtime.newobject", "runtime_malloc"},
	{"runtime.newarray", "runtime_malloc"},
	{"runtime.makeslice", "runtime_malloc"},
	{"runtime.growslice", "runtime_malloc"},
	{"runtime.makemap", "runtime_malloc"},
	{"runtime.nextFreeFast", "runtime_malloc"},
	{"runtime.heapSetType", "runtime_malloc"},
	{"runtime.publicationBarrier", "runtime_malloc"},
	{"runtime.rawbyteslice", "runtime_malloc"},
	{"runtime.rawstring", "runtime_malloc"},
	{"runtime.(*mcache)", "runtime_malloc"},
	{"runtime.(*mcentral)", "runtime_malloc"},
	{"runtime.(*mheap)", "runtime_malloc"},
	{"runtime.(*fixalloc)", "runtime_malloc"},
	{"runtime.(*pageAlloc)", "runtime_malloc"},
	{"runtime.(*pageCache)", "runtime_malloc"},
	{"runtime.(*mspan).nextFreeIndex", "runtime_malloc"},
	{"runtime.(*mspan).refillAllocCache", "runtime_malloc"},
	{"runtime.(*mspan).init", "runtime_malloc"},
	{"runtime.(*mspan).writeHeapBits", "runtime_malloc"},
	{"runtime.roundupsize", "runtime_malloc"},
	{"runtime.getMCache", "runtime_malloc"},

	{"runtime.map", "runtime_map"},
	{"runtime.memhash", "runtime_map"},
	{"runtime.strhash", "runtime_map"},
	{"runtime.aeshash", "runtime_map"},
	{"aeshash", "runtime_map"},
	{"internal/runtime/maps.", "runtime_map"},

	{"runtime.gc", "runtime_gc"},
	{"runtime._GC", "runtime_gc"},
	{"runtime.(*gc", "runtime_gc"},
	{"runtime.scan", "runtime_gc"},
	{"runtime.greyobject", "runtime_gc"},
	{"runtime.markroot", "runtime_gc"},
	{"runtime.markBits", "runtime_gc"},
	{"runtime.(*markBits)", "runtime_gc"},
	{"runtime.findObject", "runtime_gc"},
	{"runtime.spanOf", "runtime_gc"},
	{"runtime.sweepone", "runtime_gc"},
	{"runtime.bgsweep", "runtime_gc"},
	{"runtime.bgscavenge", "runtime_gc"},
	{"runtime.(*scavengerState)", "runtime_gc"},
	{"runtime.(*sweepLocke", "runtime_gc"},
	{"runtime.(*mspan).sweep", "runtime_gc"},
	{"runtime.(*mspan).typePointers", "runtime_gc"},
	{"runtime.(*mspan).heapBits", "runtime_gc"},
	{"runtime.(*mspan).markBitsForIndex", "runtime_gc"},
	{"runtime.typePointers", "runtime_gc"},
	{"runtime.(*typePointers)", "runtime_gc"},
	{"runtime.heapBitsSmallForAddr", "runtime_gc"},
	{"runtime.wbBuf", "runtime_gc"},
	{"runtime.bulkBarrier", "runtime_gc"},
	{"runtime.(*spanSet)", "runtime_gc"},
	{"runtime.(*lfstack)", "runtime_gc"},
	{"runtime.getempty", "runtime_gc"},
	{"runtime.putempty", "runtime_gc"},
	{"runtime.putfull", "runtime_gc"},
	{"runtime.trygetfull", "runtime_gc"},
	{"runtime.pcvalue", "runtime_gc"},
	{"runtime.(*unwinder)", "runtime_gc"},
	{"runtime.findfunc", "runtime_gc"},
	{"runtime.step", "runtime_gc"},
	{"runtime.readvarint", "runtime_gc"},
	{"runtime.deductAssistCredit", "runtime_gc"},
	{"runtime.finishsweep_m", "runtime_gc"},
	{"runtime.stopTheWorld", "runtime_gc"},
	{"runtime.startTheWorld", "runtime_gc"},
	{"runtime.(*mspan).base", "runtime_gc"},
	{"runtime.(*mspan).divideByElemSize", "runtime_gc"},
	{"runtime.pageIndexOf", "runtime_gc"},
	{"runtime.addb", "runtime_gc"},
	{"runtime.madvise", "runtime_gc"},
	{"gcWriteBarrier", "runtime_gc"},
	{"runtime.gcWriteBarrier", "runtime_gc"},

	{"runtime.schedule", "runtime_sched"},
	{"runtime.findRunnable", "runtime_sched"},
	{"runtime.park_m", "runtime_sched"},
	{"runtime.gopark", "runtime_sched"},
	{"runtime.goready", "runtime_sched"},
	{"runtime.ready", "runtime_sched"},
	{"runtime.chansend", "runtime_sched"},
	{"runtime.chanrecv", "runtime_sched"},
	{"runtime.chanparkcommit", "runtime_sched"},
	{"runtime.send", "runtime_sched"},
	{"runtime.recv", "runtime_sched"},
	{"runtime.selectgo", "runtime_sched"},
	{"runtime.mcall", "runtime_sched"},
	{"runtime.gogo", "runtime_sched"},
	{"runtime.runq", "runtime_sched"},
	{"runtime.globrunq", "runtime_sched"},
	{"runtime.execute", "runtime_sched"},
	{"runtime.casgstatus", "runtime_sched"},
	{"runtime.futex", "runtime_sched"},
	{"runtime.notesleep", "runtime_sched"},
	{"runtime.notewakeup", "runtime_sched"},
	{"runtime.semasleep", "runtime_sched"},
	{"runtime.semawakeup", "runtime_sched"},
	{"runtime.stopm", "runtime_sched"},
	{"runtime.startm", "runtime_sched"},
	{"runtime.wakep", "runtime_sched"},
	{"runtime.resetspinning", "runtime_sched"},
	{"runtime.lock", "runtime_sched"},
	{"runtime.unlock", "runtime_sched"},
	{"runtime.(*waitq)", "runtime_sched"},
	{"runtime.acquireSudog", "runtime_sched"},
	{"runtime.releaseSudog", "runtime_sched"},
	{"runtime.goexit", "runtime_sched"},
	{"runtime.newproc", "runtime_sched"},
	{"runtime.gfget", "runtime_sched"},
	{"runtime.gfput", "runtime_sched"},
	{"runtime.gdestroy", "runtime_sched"},
	{"runtime.dropg", "runtime_sched"},
	{"runtime.systemstack", "runtime_sched"},
	{"runtime.usleep", "runtime_sched"},
	{"runtime.osyield", "runtime_sched"},
	{"runtime.procyield", "runtime_sched"},
	{"runtime.stealWork", "runtime_sched"},
	{"runtime.checkTimers", "runtime_sched"},
	{"runtime.netpoll", "runtime_sched"},
	{"runtime.mPark", "runtime_sched"},
	{"runtime.handoffp", "runtime_sched"},
	{"runtime.acquirep", "runtime_sched"},
	{"runtime.releasep", "runtime_sched"},
	{"runtime.pidle", "runtime_sched"},
	{"runtime.mget", "runtime_sched"},
	{"runtime.mput", "runtime_sched"},
	{"runtime.injectglist", "runtime_sched"},
	{"runtime.entersyscall", "runtime_sched"},
	{"runtime.exitsyscall", "runtime_sched"},
	{"runtime.reentersyscall", "runtime_sched"},
	{"runtime.sysmon", "runtime_sched"},
	{"runtime.retake", "runtime_sched"},
	{"runtime.(*timers)", "runtime_sched"},
	{"runtime.(*gQueue)", "runtime_sched"},
	{"runtime.(*gList)", "runtime_sched"},
	{"runtime.mstart", "runtime_sched"},
	{"runtime.gosched", "runtime_sched"},
	{"runtime.goschedImpl", "runtime_sched"},
	{"runtime.acquirem", "runtime_sched"},
	{"runtime.releasem", "runtime_sched"},
	{"runtime.(*guintptr)", "runtime_sched"},
	{"runtime.wirep", "runtime_sched"},
	{"runtime.pMask", "runtime_sched"},
	{"internal/runtime/syscall.", "runtime_sched"},
}

// leafClass returns the bucket of a fully qualified function name.
// Assembly helpers such as aeshashbody carry no package and belong to
// the runtime; type:.eq.<type> equality helpers belong to the type's
// package.
func leafClass(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	pkg := funcPackage(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || !strings.Contains(fn, ".") {
		for _, rc := range runtimeClasses {
			if strings.HasPrefix(fn, rc.prefix) {
				return rc.class
			}
		}
		return "runtime_other"
	}
	if rel, ok := strings.CutPrefix(pkg, "repro/"); ok {
		if c, ok := repoClasses[rel]; ok {
			return c
		}
	}
	if c, ok := stdClasses[pkg]; ok {
		return c
	}
	return "other"
}

// funcPackage extracts the import path from a symbol name such as
// "repro/internal/netsim/topo.(*Fabric).Route".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation lists may hold slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile decodes one gzipped pprof CPU profile and adds its sample
// counts to samples, keyed by the leaf function's bucket. It decodes
// the protobuf by hand because the standard library has no reader for
// the format runtime/pprof writes.
func foldProfile(data []byte, samples map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locLeaf   = map[uint64]uint64{} // location id -> innermost function id
		leafLocs  []uint64
		leafCount []int64
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var count int64
			first := true
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					if first {
						vals := appendPacked(nil, v, b)
						count, first = int64(vals[0]), false
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 {
				leafLocs = append(leafLocs, locs[0])
				leafCount = append(leafCount, count)
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if !haveLine {
						haveLine = true
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locLeaf[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, loc := range leafLocs {
		class := "other"
		if fn, ok := locLeaf[loc]; ok {
			if s, ok := funcName[fn]; ok && s >= 0 && int(s) < len(strs) {
				class = leafClass(strs[s])
			}
		}
		samples[class] += leafCount[i]
	}
	return nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks the fields of one protobuf message, handing varint
// fields as v and length-delimited fields as b.
func pbFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value v, b nil) or packed (b holds the varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
