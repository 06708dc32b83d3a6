package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"rio/internal/wire"
)

// fakeServer stores every version written and answers reads through
// serve, which picks what a (possibly faulty) server returns.
type fakeServer struct {
	hist  map[string][][]byte
	serve func(f *fakeServer, path string) []byte
}

func (f *fakeServer) Do(req *wire.Request) (*wire.Response, error) {
	switch req.Op {
	case wire.OpWrite:
		f.hist[req.Path] = append(f.hist[req.Path], append([]byte(nil), req.Data...))
		return &wire.Response{ID: req.ID, Size: int64(len(req.Data))}, nil
	case wire.OpRead:
		return &wire.Response{ID: req.ID, Data: f.serve(f, req.Path)}, nil
	}
	return &wire.Response{ID: req.ID, Status: wire.StatusInvalid}, nil
}

func (f *fakeServer) Close() error { return nil }

func latest(f *fakeServer, path string) []byte {
	h := f.hist[path]
	return h[len(h)-1]
}

// newFakeStream returns a stream that owns keys 0..3 and has written
// key 0 twice and key 1 once through a fake server answering with serve.
func newFakeStream(t *testing.T, serve func(f *fakeServer, path string) []byte) *kvStream {
	t.Helper()
	spec := &kvSpec{keys: 4, valueSize: 100, readShare: 0.5}
	s := &kvStream{nstreams: 1, spec: spec, cl: &fakeServer{hist: map[string][][]byte{}, serve: serve},
		ver: newVersions(spec.keys), names: []string{"/k0", "/k1", "/k2", "/k3"},
		r: newRNG(1), buf: make([]byte, spec.valueSize)}
	for _, k := range []int{0, 0, 1} {
		if err := s.write(k); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestReadCheckerConvictsFaultyServers(t *testing.T) {
	cases := []struct {
		name  string
		serve func(f *fakeServer, path string) []byte
		want  error
	}{
		{"honest", latest, nil},
		{"stale", func(f *fakeServer, path string) []byte { return f.hist[path][0] }, errStale},
		{"torn", func(f *fakeServer, path string) []byte {
			// The header of the newest write over the body of the oldest.
			h := f.hist[path]
			torn := append([]byte(nil), h[0]...)
			copy(torn, h[len(h)-1][:valueHeader])
			return torn
		}, errTorn},
		{"wrong key", func(f *fakeServer, path string) []byte { return latest(f, "/k1") }, errWrongKey},
		{"never sent", func(f *fakeServer, path string) []byte {
			v := make([]byte, 100)
			fillValue(v, 0, 9)
			return v
		}, errFuture},
		{"short", func(f *fakeServer, path string) []byte { return latest(f, path)[:50] }, errSize},
		{"bit flip", func(f *fakeServer, path string) []byte {
			v := append([]byte(nil), latest(f, path)...)
			v[70] ^= 4
			return v
		}, errTorn},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newFakeStream(t, c.serve)
			err := s.read(0)
			if c.want == nil && err != nil {
				t.Fatalf("honest read convicted: %v", err)
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("read returned %v, want %v", err, c.want)
			}
		})
	}
}

// A read that overlaps a write may return the version before or the one
// in flight, and nothing older.
func TestReadCheckerBoundsOverlappingWrite(t *testing.T) {
	v := newVersions(1)
	v.ack(0, v.nextWrite(0))
	lo := v.lowBound(0) // read sent now
	v.nextWrite(0)      // version 2 in flight when the read returns
	for ver, want := range map[uint64]error{1: nil, 2: nil, 3: errFuture} {
		b := make([]byte, 64)
		fillValue(b, 0, ver)
		if err := v.check(0, lo, b, 64); !errors.Is(err, want) && !(want == nil && err == nil) {
			t.Errorf("version %d: got %v, want %v", ver, err, want)
		}
	}
	v.ack(0, 2)
	b := make([]byte, 64)
	fillValue(b, 0, 1)
	if err := v.check(0, v.lowBound(0), b, 64); !errors.Is(err, errStale) {
		t.Errorf("version 1 after version 2 was acknowledged: got %v, want stale", err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists printed here in
// step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
}
