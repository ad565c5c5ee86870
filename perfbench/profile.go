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

// cpuGroups are the groups a CPU sample is charged to, reported as
// cpu.<group> shares. Each repository package in the list is a layer;
// runtime_gc is the collector; other is everything else, such as an idle
// worker inside the scheduler.
var cpuGroups = []string{"eventq", "netdev", "packet", "routing", "tcp", "flowmon", "core", "syncx", "sim", "runtime_gc", "other"}

// gcRoots are the runtime functions that run the garbage collector: a
// sample with any of them on its stack is collector time.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcStart":           true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
}

const repoPrefix = "unison/internal/"

// group charges one sample, given its stack leaf first, to a cpu group:
// the collector when a GC root is on the stack, else the innermost frame
// in one of the layer packages. Standard-library and runtime frames above
// it count as that layer's time, and so do repository packages that are
// not layers (a routing call into internal/rng stays routing).
func group(stack []string) string {
	for _, f := range stack {
		if gcRoots[f] {
			return "runtime_gc"
		}
	}
	for _, f := range stack {
		if p := repoPackage(f); p != "" && isLayer(p) {
			return p
		}
	}
	return "other"
}

// repoPackage returns the internal package a symbol such as
// "unison/internal/netdev.(*Network).send.func1" belongs to, or "".
func repoPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isLayer(p string) bool {
	for _, g := range cpuGroups {
		if g == p {
			return true
		}
	}
	return false
}

// cpuProfile is the part of a pprof profile the grouping needs: each
// sample's stack (leaf first) and its weight.
type cpuProfile struct {
	Stacks  [][]string
	Weights []int64
}

// groupWeights sums sample weights per cpu group.
func (p *cpuProfile) groupWeights() map[string]int64 {
	out := map[string]int64{}
	for i, s := range p.Stacks {
		out[group(s)] += p.Weights[i]
	}
	return out
}

// parseProfile decodes a gzipped pprof profile (profile.proto) as written
// by runtime/pprof. The weight of a sample is its last value, the CPU
// nanoseconds of a CPU profile.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
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
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, x := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.Stacks = append(p.Stacks, stack)
		p.Weights = append(p.Weights, s.values[len(s.values)-1])
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the protobuf fields of msg, handing each to fn with its
// number and either its integer value (varint and fixed wire types) or
// its bytes (length-delimited).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field given either unpacked (one
// varint v, b nil) or packed (b holds the varints).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
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
