package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stack is one profile sample: its count and its frames' function
// names, innermost first (inlined callees before their callers).
type stack struct {
	count  int64
	frames []string
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes,
// keeping only what attribution needs: each sample's count and the
// function names along its stack. The standard library has no reader
// for the format, and the benchmark depends on nothing outside it.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		locs  []uint64
		value []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.value = append(s.value, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.value) == 0 {
			continue
		}
		st := stack{count: s.value[0]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
