package bench

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// This file turns a Go CPU profile into per-layer CPU shares. The
// profile format is gzipped protobuf (profile.proto); the few messages
// and fields the attribution needs are decoded by hand, so the
// benchmark needs no module beyond the standard library.

// cpuSample is one profile sample: its call stack as function names,
// leaf first with inlined frames expanded, the CPU time it stands for,
// and its pprof "phase" label.
type cpuSample struct {
	stack []string
	ns    int64
	phase string
}

// decodeCPUProfile parses the output of pprof.StartCPUProfile.
func decodeCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		strs        []string
		sampleTypes []int64 // type string index per value column
		samples     []rawSample
		funcName    = map[uint64]int64{}    // function id -> name index
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuCol := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuCol = i
		}
	}
	if cpuCol < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuCol >= len(s.values) {
			continue
		}
		cs := cpuSample{ns: s.values[cpuCol]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcName[fn]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" {
				cs.phase = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped: profile.proto uses none that the
// attribution reads.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether
// encoded as one unpacked value (v) or a packed run (packed).
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// --- attribution --------------------------------------------------------

const internalPrefix = "packetradio/internal/"

// pkgLayer maps an internal package to the layer its self time counts
// toward. Packages not listed count as "other".
var pkgLayer = map[string]string{
	"ax25": "ax25", "radio": "radio", "dama": "radio",
	"serial": "serial", "kiss": "kiss", "tnc": "tnc",
	"core": "core", "netif": "core", "arp": "arp", "ether": "ether",
	"ipstack": "ipstack", "ip": "ipstack", "icmp": "ipstack", "route": "ipstack",
	"rdm": "rdm", "socket": "rdm", "tcp": "rdm", "udp": "rdm",
	"obs": "obs", "world": "world",
}

// layerOf names the layer a non-runtime frame belongs to, or "" for a
// frame that passes its time to its caller (sort, sync, fmt, ...).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		rest := fn[len(internalPrefix):]
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "sim" {
			if isGroupFrame(fn) {
				return "sim.group"
			}
			return "sim.sched"
		}
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
		return "other"
	case strings.HasPrefix(fn, "container/heap."):
		return "sim.sched"
	case strings.HasPrefix(fn, "packetradio/bench"), strings.HasPrefix(fn, "runtime/pprof."):
		return "harness"
	}
	return ""
}

func isGroupFrame(fn string) bool {
	return strings.HasPrefix(fn, internalPrefix+"sim.(*Group)") ||
		strings.HasPrefix(fn, internalPrefix+"sim.(*Shard)")
}

// obsFrames are the frames whose callees all count as obs cost: the
// obs package and the world closures that wire its taps into the
// seams.
var obsFrames = []string{
	internalPrefix + "obs.",
	internalPrefix + "world.(*World).AttachPingLedger",
	internalPrefix + "world.(*World).AttachTracer",
	internalPrefix + "world.(*World).EnableFlightRecorder",
	internalPrefix + "world.(*World).CapturePort",
	internalPrefix + "world.(*World).CaptureIP",
	internalPrefix + "world.chainStackTap",
	internalPrefix + "world.chainFrameDrop",
}

func isObsFrame(fn string) bool {
	for _, p := range obsFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// Runtime frames are classed by substring; the first classed frame
// from the leaf wins, so a GC assist inside an allocation is GC.
var runtimeClasses = []struct {
	class string
	subs  []string
}{
	{"runtime.gc", []string{
		"gcBgMarkWorker", "gcDrain", "gcAssist", "markroot", "scanobject", "scanblock",
		"scanstack", "scanframe", "greyobject", "sweep", "scaveng", "wbBuf", "gcWriteBarrier",
		"gcMark", "gcStart", "gcFlush", "(*gcWork)", "_GC",
	}},
	{"runtime.alloc", []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"(*mcache)", "(*mcentral)", "(*mheap)", "nextFreeFast", "rawstring", "rawbyteslice",
	}},
	{"runtime.sched", []string{
		"schedule", "findRunnable", "park_m", "mcall", "gopark", "goready", "ready",
		"notesleep", "notewakeup", "futex", "stopm", "startm", "wakep", "runqgrab",
		"runqsteal", "stealWork", "chansend", "chanrecv", "selectgo", "semacquire",
		"semrelease", "newproc", "goexit", "gosched", "usleep", "osyield", "execute",
		"gogo", "mstart", "sysmon", "netpoll", "entersyscall", "exitsyscall", "lock2", "unlock2",
	}},
}

func runtimeClass(fn string) string {
	name := fn[len("runtime."):]
	for _, rc := range runtimeClasses {
		for _, s := range rc.subs {
			if strings.Contains(name, s) {
				return rc.class
			}
		}
	}
	return ""
}

// Attribution is CPU time split by layer.
type Attribution struct {
	Total int64            // all sampled CPU ns
	Self  map[string]int64 // self time per layer; "unattributed" holds the rest
	Obs   int64            // samples with any obs frame on the stack
	Group int64            // samples whose innermost sim frame is shard coordination
	Setup int64            // samples labelled phase=setup
}

// attribute splits samples by layer, leaving out those the harness
// labelled as its own work. Self time goes to the innermost
// frame with a layer, except that runtime frames between the leaf and
// that frame which do GC, allocation or goroutine scheduling take it
// into runtime.gc / runtime.alloc / runtime.sched. obs and sim.group
// are also summed inclusively: obs taps spend most of their time in
// the decoders they call, and shard coordination in the runtime.
func attribute(samples []cpuSample) Attribution {
	a := Attribution{Self: map[string]int64{}}
	for _, s := range samples {
		if s.phase == "harness" {
			continue
		}
		a.Total += s.ns
		if s.phase == "setup" {
			a.Setup += s.ns
		}
		self, rclass := "", ""
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "runtime.") {
				if rclass == "" {
					rclass = runtimeClass(fn)
				}
				continue
			}
			if self = layerOf(fn); self != "" {
				break
			}
		}
		switch {
		case rclass != "":
			a.Self[rclass] += s.ns
		case self != "":
			a.Self[self] += s.ns
		default:
			a.Self["unattributed"] += s.ns
		}
		for _, fn := range s.stack {
			if isObsFrame(fn) {
				a.Obs += s.ns
				break
			}
		}
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, internalPrefix+"sim.") {
				if isGroupFrame(fn) {
					a.Group += s.ns
				}
				break
			}
		}
	}
	return a
}

// Share returns part/Total (0 for an empty profile).
func (a Attribution) Share(part int64) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(part) / float64(a.Total)
}

// obsHeapBytes estimates the live heap allocated under obs frames, from
// the runtime's sampled heap profile scaled the way pprof scales it.
// Call right after runtime.GC, which publishes the profile.
func obsHeapBytes() float64 {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	var total float64
	for i := range recs {
		r := &recs[i]
		count, size := r.InUseObjects(), r.InUseBytes()
		if count <= 0 || size <= 0 || !stackHasObs(r.Stack()) {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(size)/float64(count)/rate))
		}
		total += float64(size) * scale
	}
	return total
}

// stackHasObs reports whether an allocation stack holds an obs frame.
// The metrics registry is obs code too, but the traced run builds it
// only to read counters, so allocations under World.Registry are not
// charged to the taps.
func stackHasObs(pcs []uintptr) bool {
	frames := runtime.CallersFrames(pcs)
	found := false
	for {
		f, more := frames.Next()
		if f.Function == internalPrefix+"world.(*World).Registry" {
			return false
		}
		found = found || isObsFrame(f.Function)
		if !more {
			return found
		}
	}
}
