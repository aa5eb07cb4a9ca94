package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced pass in memory. Spans wrap the
// benchmark's own calls into the program's public functions; spans inside
// the program are out of scope. A nil *tracer records nothing, so untraced
// passes call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Parent is the id of the span that caused it (0
// for none); spans of one request share the request's Parent.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0)) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUS: now, EndUS: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0)) / 1e3
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// durations returns the lengths of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndUS >= 0 {
			out = append(out, (s.EndUS-s.StartUS)/1e6)
		}
	}
	return out
}

// total sums the lengths of the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and attributes its samples.
func (p *cpuProfile) stop() (*attribution, error) {
	pprof.StopCPUProfile()
	prof, err := decodeProfile(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	return attribute(prof), nil
}

// attribution is a CPU profile folded by module: self time by the module
// of each sample's leaf frame, and cumulative time under a few named
// functions.
type attribution struct {
	total float64            // profiled CPU seconds
	self  map[string]float64 // module -> seconds
	cum   map[string]float64 // cumulative group -> seconds
}

// cumulative groups: a sample counts once toward a group if any of its
// frames is one of the group's functions.
var cumGroups = map[string][]string{
	"store.put":  {"repro/internal/store.(*Store).Put"},
	"system.new": {"repro/internal/system.New", "repro/internal/system.NewWith"},
}

// repoModules are the repository packages reported as layers; any other
// repository package counts as "other".
var repoModules = map[string]bool{
	"network": true, "sim": true, "cache": true, "cpu": true, "hmc": true,
	"dram": true, "mem": true, "core": true, "system": true, "workload": true,
	"sweep": true, "service": true, "store": true, "cluster": true,
}

// moduleOf maps a function name from a profile to its layer.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.Index(pkg, "["); i >= 0 { // type arguments may hold paths
		pkg = pkg[:i]
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.Index(mod, "/"); i >= 0 {
			mod = mod[:i]
		}
		if repoModules[mod] {
			return mod
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}

func attribute(p *profile) *attribution {
	a := &attribution{self: map[string]float64{}, cum: map[string]float64{}}
	groupOf := map[string]string{}
	for g, fns := range cumGroups {
		for _, fn := range fns {
			groupOf[fn] = g
		}
	}
	for _, s := range p.samples {
		sec := float64(s.cpuNS) / 1e9
		a.total += sec
		if len(s.frames) == 0 {
			a.self["other"] += sec
			continue
		}
		a.self[moduleOf(s.frames[0])] += sec
		seen := map[string]bool{}
		for _, fn := range s.frames {
			if g, ok := groupOf[fn]; ok && !seen[g] {
				seen[g] = true
				a.cum[g] += sec
			}
		}
	}
	return a
}

// profile is the part of a pprof profile.proto the attribution needs:
// every sample's CPU nanoseconds and its frames, leaf first.
type profile struct {
	samples []profSample
}

type profSample struct {
	cpuNS  int64
	frames []string
}

// decodeProfile reads a gzip-compressed profile.proto as runtime/pprof
// writes it. It implements just enough of the protobuf wire format for
// the Profile, Sample, Location, Line and Function messages.
func decodeProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location -> function ids, leaf first
		funcNames   = map[uint64]int64{}    // function -> string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return packed(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
		return nil, err
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	name := func(fid uint64) string {
		si, ok := funcNames[fid]
		if !ok || si < 0 || int(si) >= len(strs) {
			return "?"
		}
		return strs[si]
	}
	p := &profile{}
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			return nil, errors.New("profile sample lacks a cpu value")
		}
		ps := profSample{cpuNS: s.vals[cpuIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				ps.frames = append(ps.frames, name(fid))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
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
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed delivers a repeated varint field in either encoding.
func packed(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
