package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A runtime/pprof CPU profile is a gzip-compressed perftools.profiles.Profile
// protocol buffer. cpuProfile holds the parts of it the layer attribution
// needs; the reader below decodes just those fields with the standard
// library.
type cpuProfile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost inlined call first
	functions map[uint64]int64    // function id → index of its name in strs
	strs      []string
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value: CPU nanoseconds
}

// Field numbers of the profile.proto messages read here.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileString   = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(f field) error {
		switch f.num {
		case fieldProfileSample:
			var s profSample
			var values []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fieldSampleLocation:
					s.locations = g.appendVarints(s.locations)
				case fieldSampleValue:
					values = g.appendVarints(values)
				}
				return nil
			})
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fieldLocationID:
					id = g.varint
				case fieldLocationLine:
					return eachField(g.bytes, func(h field) error {
						if h.num == fieldLineFunction {
							funcs = append(funcs, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fieldFunctionID:
					id = g.varint
				case fieldFunctionName:
					name = int64(g.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fieldProfileString:
			p.strs = append(p.strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// field is one decoded protobuf field: a varint, or the payload of a
// length-delimited field. Fixed-width fields are skipped.
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// appendVarints appends the field's integers to dst, whether the repeated
// field was written packed or one element per field.
func (f field) appendVarints(dst []uint64) []uint64 {
	if f.wire == 0 {
		return append(dst, f.varint)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := readVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = readVarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			size, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < size {
				return errTruncated
			}
			f.bytes = b[n : n+int(size)]
			b = b[n+int(size):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// readVarint decodes a base-128 varint; n is 0 when b ends inside it.
func readVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "deepnote/internal/"

// gcRoots are the runtime's background collector goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerTime is CPU time charged by attribute.
type layerTime struct {
	pkg   map[string]int64 // internal package → CPU ns
	gc    int64            // background GC work with no internal frame
	total int64
}

// attribute charges each sample to the innermost deepnote/internal package
// on its stack, so standard-library and runtime work (allocation, maps,
// locks, time arithmetic) is charged to the layer that called it. Samples
// with no such frame go to gc when a background collector goroutine ran
// them, and stay unattributed otherwise.
func (p *cpuProfile) attribute(into *layerTime) {
	if into.pkg == nil {
		into.pkg = map[string]int64{}
	}
	for _, s := range p.samples {
		into.total += s.value
		pkg, gc := p.classify(s)
		switch {
		case pkg != "":
			into.pkg[pkg] += s.value
		case gc:
			into.gc += s.value
		}
	}
}

func (p *cpuProfile) classify(s profSample) (pkg string, gc bool) {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			name := p.funcName(fn)
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					rest = rest[:i]
				}
				return rest, false
			}
			for _, root := range gcRoots {
				if name == root {
					gc = true
				}
			}
		}
	}
	return "", gc
}

func (p *cpuProfile) funcName(id uint64) string {
	if i, ok := p.functions[id]; ok && i >= 0 && i < int64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}
