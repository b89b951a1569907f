package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: each sample's stack of function names, its sample count and its
// pprof labels. The format is the gzipped profile.proto message; the
// decoder below handles only the fields used here, so the benchmark needs
// nothing beyond the standard library.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	funcs  []string
	count  int64
	labels map[string]string
}

// fraction returns the samples carrying label key=val whose stack holds
// fn, and all samples carrying that label.
func (p *cpuProfile) fraction(key, val, fn string) (hit, base int64) {
	for _, s := range p.samples {
		if s.labels[key] != val {
			continue
		}
		base += s.count
		for _, f := range s.funcs {
			if f == fn {
				hit += s.count
				break
			}
		}
	}
	return hit, base
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2
	sampleLabelField    = 3

	labelKeyField = 1
	labelStrField = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64 // values[0] is the sample count
		labels [][2]int64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]int64{}
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case profStringField:
			strs = append(strs, string(b))
		case profSampleField:
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case sampleLocationField:
					s.locs = appendInts(s.locs, v, b)
				case sampleValueField:
					s.values = appendInts(s.values, v, b)
				case sampleLabelField:
					var kv [2]int64
					err := eachField(b, func(f int, v uint64, _ []byte) error {
						if f == labelKeyField || f == labelStrField {
							kv[f-1] = int64(v)
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
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case locationIDField:
					id = v
				case locationLineField:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == lineFunctionField {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionIDField:
					id = v
				case functionNameField:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
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
	p := &cpuProfile{}
	for _, rs := range samples {
		s := profSample{labels: map[string]string{}}
		if len(rs.values) > 0 {
			s.count = int64(rs.values[0])
		}
		for _, l := range rs.locs {
			for _, fn := range locFns[l] {
				s.funcs = append(s.funcs, str(fnName[fn]))
			}
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field, packed (data) or not (v).
func appendInts(out []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(out, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// uvarint decodes a varint, returning n == 0 when b holds none.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return x, n
}
