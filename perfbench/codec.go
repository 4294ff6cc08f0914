package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/erasure"
	"repro/internal/erasure/codecache"
	"repro/internal/gf256"
)

// Chunk sizes of the codec-stream workload: payload-rw's 32 KiB chunk,
// below both calibrated kernel fan-out thresholds, and the paper's 4 MiB
// default stripe unit, above both. Each size carries the same data volume
// per round: reps × chunk is 4 MiB per shard.
type codecSize struct {
	label string
	bytes int
	reps  int
}

var codecSizes = []codecSize{
	{"32k", 32 << 10, 128},
	{"4m", 4 << 20, 1},
}

var codecOps = []string{"encode", "repair", "decode"}

// decodeLost are the shards erased for Decode: m=3 data shards, so every
// lost byte is rebuilt from parity.
var decodeLost = []int{0, 4, 8}

// stripe is one code's seeded input at one chunk size.
type stripe struct {
	data   [][]byte // k data shards
	parity [][]byte // reference parity from setup
	out    [][]byte // parity buffers Encode writes into
}

type codecCase struct {
	code  string // "rs" or "clay"
	size  int    // index into codecSizes
	chunk int    // bytes per shard: the size rounded up to the code's sub-chunk count
	st    stripe
}

// codecStream is the codec-stream workload: erasure.Code used as a
// library through codecache.Get, with no simulator.
type codecStream struct {
	cases []*codecCase
	sizes []codecSize
	seed  int64
	rows  []*rowSources       // per size, built by the first rowProbe
	lat   map[string]*samples // "<code>.<op>.<size>" -> op latency
	bytes map[string]float64  // "<code>.<op>" -> bytes processed

	attempted, failed int
	// corrupt, when set, flips one output byte before verification: a
	// check that the output gate catches bad bytes.
	corrupt bool
}

func codecFor(label string) (erasure.Code, error) {
	if label == "rs" {
		return codecache.Get(pluginRS, 9, 3, 0)
	}
	return codecache.Get(pluginClay, 9, 3, 11)
}

// newCodecStream builds seeded stripes for every code and size. shrink
// divides the chunk sizes for quick checks.
func newCodecStream(seed int64, shrink int) (*codecStream, error) {
	w := &codecStream{lat: map[string]*samples{}, bytes: map[string]float64{}}
	w.sizes = append(w.sizes, codecSizes...)
	for i := range w.sizes {
		w.sizes[i].bytes /= shrink
	}
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	for _, label := range codeLabels {
		code, err := codecFor(label)
		if err != nil {
			return nil, err
		}
		alpha := code.SubChunks()
		for si, sz := range w.sizes {
			c := &codecCase{code: label, size: si, chunk: (sz.bytes + alpha - 1) / alpha * alpha}
			for i := 0; i < code.K(); i++ {
				buf := make([]byte, c.chunk)
				rng.Read(buf)
				c.st.data = append(c.st.data, buf)
			}
			shards := make([][]byte, code.N())
			copy(shards, c.st.data)
			if err := code.Encode(shards); err != nil {
				return nil, err
			}
			c.st.parity = shards[code.K():]
			// The reference parity must itself decode back to the data.
			check := append([][]byte(nil), shards...)
			for _, l := range decodeLost {
				check[l] = nil
			}
			if err := code.Decode(check); err != nil {
				return nil, err
			}
			for i := 0; i < code.K(); i++ {
				if !bytes.Equal(check[i], c.st.data[i]) {
					return nil, fmt.Errorf("%s %s: reference parity does not decode", label, sz.label)
				}
			}
			for i := 0; i < code.M(); i++ {
				c.st.out = append(c.st.out, make([]byte, c.chunk))
			}
			w.cases = append(w.cases, c)
			for _, op := range codecOps {
				w.lat[label+"."+op+"."+sz.label] = &samples{}
			}
		}
	}
	return w, nil
}

func (w *codecStream) verify(what string, got, want []byte) {
	if w.corrupt && len(got) > 0 {
		got[len(got)/2] ^= 1
	}
	if !bytes.Equal(got, want) {
		w.failed++
		logFailure("codec-stream: %s output differs\n", what)
	}
}

// unit runs one round: every code, size and op, each size carrying the
// same data volume.
func (w *codecStream) unit(tr *tracer) time.Duration {
	var timed time.Duration
	for _, c := range w.cases {
		code, err := codecFor(c.code)
		if err != nil {
			w.attempted++
			w.failed++
			logFailure("codec-stream: %v\n", err)
			continue
		}
		sz := w.sizes[c.size]
		k, n := code.K(), code.N()
		for rep := 0; rep < sz.reps; rep++ {
			for _, op := range codecOps {
				shards := make([][]byte, n)
				copy(shards, c.st.data)
				copy(shards[k:], c.st.parity)
				var lost []int
				switch op {
				case "encode":
					copy(shards[k:], c.st.out)
				case "repair":
					lost = []int{0}
				case "decode":
					lost = decodeLost
				}
				for _, l := range lost {
					shards[l] = nil
				}
				name := c.code + "." + op + "." + sz.label
				spanName := "erasure." + name
				t0 := time.Now()
				id := tr.begin(layerErasure, spanName)
				switch op {
				case "encode":
					err = code.Encode(shards)
				case "repair":
					err = code.Repair(shards, lost)
				case "decode":
					err = code.Decode(shards)
				}
				tr.end(id)
				d := time.Since(t0)
				timed += d
				w.lat[name].add(d)
				w.attempted++
				if err != nil {
					w.failed++
					logFailure("codec-stream: %s: %v\n", name, err)
					continue
				}
				switch op {
				case "encode":
					w.bytes[c.code+"."+op] += float64(k * c.chunk)
					for i := k; i < n; i++ {
						w.verify(name, shards[i], c.st.parity[i-k])
					}
				case "repair":
					w.bytes[c.code+"."+op] += float64(c.chunk)
					w.verify(name, shards[0], c.st.data[0])
				case "decode":
					w.bytes[c.code+"."+op] += float64(k * c.chunk)
					for _, l := range lost {
						w.verify(name, shards[l], c.st.data[l])
					}
				}
			}
		}
	}
	return timed
}

func (w *codecStream) opKinds() []samples {
	var out []samples
	for _, label := range codeLabels {
		for _, op := range codecOps {
			for _, sz := range w.sizes {
				out = append(out, *w.lat[label+"."+op+"."+sz.label])
			}
		}
	}
	return out
}

// report prints each code and op's throughput over both sizes: bytes as
// k×chunk for encode and decode and the repaired shard for repair.
func (w *codecStream) report(r *report) {
	for _, label := range codeLabels {
		for _, op := range codecOps {
			var t float64
			n := 0
			for _, sz := range w.sizes {
				s := *w.lat[label+"."+op+"."+sz.label]
				t += s.sum()
				n += len(s)
			}
			if t > 0 {
				r.line(fmt.Sprintf("%s_%s_gbps", label, op), fmt.Sprintf("%.4f", w.bytes[label+"."+op]/t/1e9), fmt.Sprintf("GB/s (n=%d)", n))
			}
		}
	}
}

func (w *codecStream) layers(lm layerMetrics) {
	for name, s := range w.lat {
		lm["erasure."+name+".p50_us"] = s.median() * 1e6
	}
	for i, r := range w.rows {
		if m := r.lat.median(); m > 0 {
			sz := w.sizes[i]
			lm["gf256.muladd_row_gbps."+sz.label] = float64(9*len(r.dst)) / m / 1e9
		}
	}
}

// rowSources is gf256.MulAddRow's input at each chunk size: nine seeded
// sources, RS(12,9)'s encode row shape.
type rowSources struct {
	coeffs []byte
	srcs   [][]byte
	dst    []byte
	reps   int
	lat    samples
}

func newRowSources(rng *rand.Rand, size, reps int) *rowSources {
	r := &rowSources{coeffs: make([]byte, 9), srcs: make([][]byte, 9), dst: make([]byte, size), reps: reps}
	for i := range r.srcs {
		r.coeffs[i] = byte(rng.Intn(255) + 1)
		r.srcs[i] = make([]byte, size)
		rng.Read(r.srcs[i])
	}
	return r
}

// rowProbe times gf256.MulAddRow directly at each chunk size, so the
// kernel layer has a figure of its own beside the codec calls built on
// it. Each pass moves the round's data volume per source at each size.
func (w *codecStream) rowProbe(tr *tracer) {
	if w.rows == nil {
		rng := rand.New(rand.NewSource(w.seed))
		for _, sz := range w.sizes {
			w.rows = append(w.rows, newRowSources(rng, sz.bytes, sz.reps))
		}
	}
	for _, r := range w.rows {
		for i := 0; i < r.reps; i++ {
			id := tr.begin(layerGF256, "gf256.MulAddRow")
			t0 := time.Now()
			gf256.MulAddRow(r.coeffs, r.srcs, r.dst)
			r.lat.add(time.Since(t0))
			tr.end(id)
		}
	}
}
