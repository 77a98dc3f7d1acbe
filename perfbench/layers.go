package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerNames lists every layer a CPU profile is split into, in report
// order. Each gets a "<layer>.cpu_share" metric, 0 when it has no samples.
var layerNames = []string{
	"simtime", "experiments", "geo", "d2d", "matching", "rrc", "energy",
	"sched", "presence", "hbproto", "relaynet.server", "relaynet.relay",
	"net", "runtime.gc", "runtime.sched", "other",
}

// layerTable maps a function-name prefix to its layer. The longest matching
// prefix wins; a function no prefix names falls into "other". Package
// prefixes end in "." so that "internal/sched." cannot match
// "internal/scheduler.".
var layerTable = map[string]string{
	"d2dhb/internal/simtime.":     "simtime",
	"d2dhb/internal/experiments.": "experiments",
	"d2dhb/internal/geo.":         "geo",
	"d2dhb/internal/d2d.":         "d2d",
	"d2dhb/internal/matching.":    "matching",
	"d2dhb/internal/rrc.":         "rrc",
	"d2dhb/internal/energy.":      "energy",
	"d2dhb/internal/sched.":       "sched",
	"d2dhb/internal/presence.":    "presence",
	"d2dhb/internal/hbproto.":     "hbproto",

	// relaynet is split by receiver: the server with its ack
	// aggregator, and the relay agent with the message copy its UE
	// readers make.
	"d2dhb/internal/relaynet.(*Server).":        "relaynet.server",
	"d2dhb/internal/relaynet.(*ackAggregator).": "relaynet.server",
	"d2dhb/internal/relaynet.(*RelayAgent).":    "relaynet.relay",
	"d2dhb/internal/relaynet.copyMessage":       "relaynet.relay",

	// Syscalls and the network poller.
	"net.":                      "net",
	"internal/poll.":            "net",
	"syscall.":                  "net",
	"internal/runtime/syscall.": "net",
	"runtime/internal/syscall.": "net",
	"runtime.netpoll":           "net",
	"runtime.(*pollDesc).":      "net",
	"runtime.poll_runtime":      "net",

	// Garbage collection: marking, sweeping, scavenging, write barriers.
	"runtime.gc":                     "runtime.gc",
	"runtime.(*gc":                   "runtime.gc",
	"runtime.scan":                   "runtime.gc",
	"runtime.greyobject":             "runtime.gc",
	"runtime.findObject":             "runtime.gc",
	"runtime.markroot":               "runtime.gc",
	"runtime.markBits":               "runtime.gc",
	"runtime.(*markBits).":           "runtime.gc",
	"runtime.wbBuf":                  "runtime.gc",
	"runtime.bulkBarrier":            "runtime.gc",
	"runtime.sweepone":               "runtime.gc",
	"runtime.bgsweep":                "runtime.gc",
	"runtime.(*sweepLocked).":        "runtime.gc",
	"runtime.(*mspan).sweep":         "runtime.gc",
	"runtime.(*mspan).typePointers":  "runtime.gc",
	"runtime.(*mspan).heapBits":      "runtime.gc",
	"runtime.typePointers":           "runtime.gc",
	"runtime.(*typePointers).":       "runtime.gc",
	"runtime.spanOf":                 "runtime.gc",
	"runtime.bgscavenge":             "runtime.gc",
	"runtime.(*scavengerState).":     "runtime.gc",
	"runtime.(*pageAlloc).scavenge":  "runtime.gc",
	"runtime.(*mheap).reclaim":       "runtime.gc",
	"runtime.(*mspan).markBitsForIn": "runtime.gc",

	// Goroutine scheduling, parking, timers and the locks under them.
	"runtime.schedule":      "runtime.sched",
	"runtime.findRunnable":  "runtime.sched",
	"runtime.park_m":        "runtime.sched",
	"runtime.mcall":         "runtime.sched",
	"runtime.gopark":        "runtime.sched",
	"runtime.goready":       "runtime.sched",
	"runtime.ready":         "runtime.sched",
	"runtime.runq":          "runtime.sched",
	"runtime.globrunq":      "runtime.sched",
	"runtime.stealWork":     "runtime.sched",
	"runtime.execute":       "runtime.sched",
	"runtime.gogo":          "runtime.sched",
	"runtime.gosched":       "runtime.sched",
	"runtime.goschedImpl":   "runtime.sched",
	"runtime.newproc":       "runtime.sched",
	"runtime.gfget":         "runtime.sched",
	"runtime.gfput":         "runtime.sched",
	"runtime.casgstatus":    "runtime.sched",
	"runtime.futex":         "runtime.sched",
	"runtime.notesleep":     "runtime.sched",
	"runtime.notewakeup":    "runtime.sched",
	"runtime.notetsleep":    "runtime.sched",
	"runtime.semasleep":     "runtime.sched",
	"runtime.semawakeup":    "runtime.sched",
	"runtime.mPark":         "runtime.sched",
	"runtime.stopm":         "runtime.sched",
	"runtime.startm":        "runtime.sched",
	"runtime.wakep":         "runtime.sched",
	"runtime.handoffp":      "runtime.sched",
	"runtime.acquirep":      "runtime.sched",
	"runtime.releasep":      "runtime.sched",
	"runtime.resetspinning": "runtime.sched",
	"runtime.checkTimers":   "runtime.sched",
	"runtime.(*timer)":      "runtime.sched",
	"runtime.(*timers)":     "runtime.sched",
	"runtime.usleep":        "runtime.sched",
	"runtime.osyield":       "runtime.sched",
	"runtime.procyield":     "runtime.sched",
	"runtime.sysmon":        "runtime.sched",
	"runtime.retake":        "runtime.sched",
	"runtime.lock":          "runtime.sched",
	"runtime.unlock":        "runtime.sched",
	"runtime.semacquire":    "runtime.sched",
	"runtime.semrelease":    "runtime.sched",
	"runtime.chansend":      "runtime.sched",
	"runtime.chanrecv":      "runtime.sched",
	"runtime.selectgo":      "runtime.sched",
	"runtime.send":          "runtime.sched",
	"runtime.recv":          "runtime.sched",
}

// layerOf returns the layer of a fully qualified function name.
func layerOf(fn string) string {
	best, layer := 0, "other"
	for prefix, l := range layerTable {
		if len(prefix) > best && strings.HasPrefix(fn, prefix) {
			best, layer = len(prefix), l
		}
	}
	return layer
}

// stackLayer charges one sample: to the layer of its leaf function, or,
// when the table does not name the leaf (runtime helpers such as map access
// and allocation, hashing, repo packages without a layer of their own), to
// the nearest caller it does name. A stack with no named frame is "other".
// frames run from the leaf to the root.
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "other" {
			return l
		}
	}
	return "other"
}

// layerShares returns every layer's share of the summed sample values;
// every name in layerNames is present.
func layerShares(byLayer map[string]int64) map[string]float64 {
	var total int64
	for _, v := range byLayer {
		total += v
	}
	out := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		out[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return out
}

// profileLayers decodes a gzipped pprof CPU profile and sums the last
// sample value (CPU nanoseconds) by layer, as stackLayer charges it. Only
// the fields needed are read: samples, locations with their lines,
// functions and the string table.
func profileLayers(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
				samples = append(samples, s)
			}
		case 4: // Location; its Lines run from the innermost inlined frame out
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	byLayer := make(map[string]int64)
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx, ok := fnName[fn]; ok && idx >= 0 && int(idx) < len(strs) {
					frames = append(frames, strs[idx])
				}
			}
		}
		byLayer[stackLayer(frames)] += s.value
	}
	return byLayer, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (nil for a
// varint field). Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// pbRepeated yields a repeated varint field in either encoding: packed
// (b holds the values) or one value per field (b is nil).
func pbRepeated(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		yield(x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes one varint, returning 0 bytes consumed on truncation.
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
