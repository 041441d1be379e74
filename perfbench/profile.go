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

// Profile buckets: one per repo module, the benchmark's own frames, and
// three runtime buckets for samples no module caused.
const (
	bucketGC    = "runtime.gc"
	bucketAlloc = "runtime.alloc"
	bucketOther = "runtime.other"
	bucketBench = "bench"
)

var buckets = []string{
	"sim", "hostif", "nvme", "core", "ftl", "ctrl", "nand", "dram", "amba",
	"ecc", "cpu", "compress", "workload", "telemetry", "dse", bucketBench,
	bucketGC, bucketAlloc, bucketOther,
}

// moduleAlias folds internal packages that are not layers of their own
// into the layer that uses them.
var moduleAlias = map[string]string{
	"trace":  "workload", // request records and trace readers feed the generators
	"config": "core",     // configuration is resolved by core.Build
}

// stackSample is one CPU-profile sample: frames from the leaf outwards.
type stackSample struct {
	frames []string
	count  int64
}

// gcFrame matches runtime frames doing collection work: marking, sweeping,
// assists, write barriers and scavenging.
func gcFrame(f string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.scan", "runtime.markroot", "runtime.greyobject",
		"runtime.sweepone", "runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep", "runtime.(*gcWork)",
		"runtime.GC", "runtime._GC", // _GC: the profiler's label for unwalkable GC stacks
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// allocFrame matches the runtime's allocation entry points.
func allocFrame(f string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap)",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func runtimeFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "runtime/") ||
		strings.HasPrefix(f, "internal/runtime/")
}

// repoModule names the module of a repo frame, or "" for other code.
func repoModule(f string) string {
	if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/perfbench") {
		return bucketBench
	}
	rest, ok := strings.CutPrefix(f, "repro/internal/")
	if !ok {
		if strings.HasPrefix(f, "repro.") {
			return "core" // the public facade over core
		}
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	if a, ok := moduleAlias[rest]; ok {
		return a
	}
	return rest
}

// bucketOf attributes one sample. Runtime leaves doing collection work go
// to gc and those under an allocation to alloc, GC first so assists count
// as gc. Any other leaf, runtime or standard library, goes to the nearest
// calling repo module; stacks with no repo frame go to other.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if !runtimeFrame(f) {
			break
		}
		if gcFrame(f) {
			return bucketGC
		}
	}
	for _, f := range frames {
		if !runtimeFrame(f) {
			break
		}
		if allocFrame(f) {
			return bucketAlloc
		}
	}
	for _, f := range frames {
		if m := repoModule(f); m != "" {
			return m
		}
	}
	return bucketOther
}

// bucketShares returns each bucket's share of the samples, which sum to 1,
// and the sample count.
func bucketShares(stacks []stackSample) (map[string]float64, int64) {
	counts := make(map[string]int64, len(buckets))
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, total
}

// parseProfile decodes a gzipped pprof CPU profile (profile.proto) into
// symbolized stacks. Only the fields the bucketing needs are read.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, leaf first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "?"
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, handing fn each field's number
// with its varint value or, for length-delimited fields, its bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
