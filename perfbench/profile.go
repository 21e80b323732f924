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

// layers are the attribution buckets of a CPU profile: this repo's
// modules, the Go runtime split into gc and the rest, the benchmark's
// own code, and other (pier packages off the measured path: chord,
// admin, trace, the root package's glue).
var layers = []string{
	"simnet", "realnet", "wire", "dht", "can", "multicast", "provider", "storage",
	"core", "stats", "index", "sql", "runtime", "gc", "bench", "other",
}

// layerOfPackage maps a package path to its layer. The env package is
// a utility every layer calls (timers, RNG, sorted iteration), so its
// frames pass the sample on to their caller.
func layerOfPackage(pkg string) (layer string, skip bool) {
	switch {
	case pkg == "main" || pkg == "pier/internal/workload":
		return "bench", false
	case pkg == "pier/internal/env":
		return "", true
	case pkg == "pier/internal/topology":
		return "simnet", false
	case pkg == "pier/internal/opt":
		return "stats", false
	case strings.HasPrefix(pkg, "pier/internal/core"):
		return "core", false
	}
	rest, ok := strings.CutPrefix(pkg, "pier/internal/")
	if !ok {
		return "other", false
	}
	rest = strings.TrimPrefix(rest, "dht/")
	for _, l := range layers {
		if rest == l {
			return l, false
		}
	}
	return "other", false
}

// packageOf extracts the package path from a symbol name such as
// "pier/internal/dht/can.(*Router).route" or "main.run.func1".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frame is one function on a sampled stack.
type frame struct{ fn, file string }

// classify attributes one sample's stack (leaf first) to a layer: the
// layer of the innermost frame in this repo or the benchmark; with
// none, gc for collector work and runtime otherwise. Each package keeps
// its messages' encoders in its wirecodec.go, so frames from those
// files count as the wire codec.
func classify(stack []frame) string {
	for _, f := range stack {
		pkg := packageOf(f.fn)
		if pkg != "main" && pkg != "pier" && !strings.HasPrefix(pkg, "pier/") {
			continue
		}
		if strings.HasSuffix(f.file, "/wirecodec.go") {
			return "wire"
		}
		if l, skip := layerOfPackage(pkg); !skip {
			return l
		}
	}
	for _, f := range stack {
		fn := f.fn
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.markroot" || fn == "runtime.scanobject" {
			return "gc"
		}
	}
	return "runtime"
}

// cpuProfile is a parsed runtime/pprof CPU profile: per-sample stacks
// of functions, leaf first, with the CPU time each stands for.
type cpuProfile struct {
	stacks [][]frame
	nanos  []int64
}

// byLayer sums CPU seconds per layer.
func (p *cpuProfile) byLayer() map[string]float64 {
	out := map[string]float64{}
	for i, st := range p.stacks {
		out[classify(st)] += float64(p.nanos[i]) / 1e9
	}
	return out
}

// within sums CPU seconds of samples with fn anywhere on the stack.
func (p *cpuProfile) within(fn string) float64 {
	s := 0.0
	for i, st := range p.stacks {
		for _, f := range st {
			if f.fn == fn {
				s += float64(p.nanos[i]) / 1e9
				break
			}
		}
	}
	return s
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto). Only the fields
// attribution needs are read: samples, locations with their inlined
// lines, functions, and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames = map[uint64][2]int64{} // function -> name, file string indexes
		strs      []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					for _, x := range appendVarints(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
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
			var name [2]int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name[0] = int64(v)
				case 4:
					name[1] = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		str := func(i int64) string {
			if i >= 0 && int(i) < len(strs) {
				return strs[i]
			}
			return ""
		}
		var stack []frame
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				nf := funcNames[f]
				stack = append(stack, frame{str(nf[0]), str(nf[1])})
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, s.values[1])
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
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
