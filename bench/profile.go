package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
)

// A profile is the part of a pprof CPU profile the layer fold needs: each
// sample's stack as function names, innermost first, with inlined frames
// expanded, and the CPU time the sample stands for.
type profile struct {
	samples []stackSample
}

type stackSample struct {
	funcs []string
	ns    int64
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes it.
// It reads only sample_type, sample, location, function and string_table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample: location_id=1, value=2 (packed or not)
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendInts(&s.locs, w, v, b)
				case 2:
					return appendInts(&s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: id=1, name=2
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type (not a CPU profile?)")
	}
	p := &profile{}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample is missing its cpu value")
		}
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				funcs = append(funcs, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, stackSample{funcs: funcs, ns: int64(s.values[cpu])})
	}
	return p, nil
}

// appendInts appends a repeated integer field in either encoding.
func appendInts(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, handing fn the field
// number, wire type, and the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// Layers are this repository's modules. A sample is charged to the layer of
// its innermost pageseer/internal/<pkg> frame (all of obs/* is one layer), so
// a runtime helper such as a map lookup counts against the layer that called
// it. A sample with no such frame is the benchmark's own work if a frame of
// package main is on the stack, and the Go runtime's (GC workers, the
// scheduler) otherwise.
const (
	internalPrefix = "pageseer/internal/"
	layerBench     = "bench"
	layerRuntime   = "runtime"
)

func layerOf(funcs []string) string {
	bench := false
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return layerBench
	}
	return layerRuntime
}

// probeFunc is the host-speed probe's frame (main.hostProbe, or the package
// path's in a test binary). Its samples measure the host, not the
// simulator, so the fold leaves them out.
var probeFunc = runtime.FuncForPC(reflect.ValueOf(hostProbe).Pointer()).Name()

// fold sums each layer's self CPU time in nanoseconds.
func (p *profile) fold() map[string]int64 {
	ns := map[string]int64{}
	for _, s := range p.samples {
		if slices.Contains(s.funcs, probeFunc) {
			continue
		}
		ns[layerOf(s.funcs)] += s.ns
	}
	return ns
}
