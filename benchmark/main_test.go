package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/wire"
)

// smallConfig shrinks every workload to a fraction of a second.
func smallConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.window, cfg.setups, cfg.scratch = 500*time.Millisecond, 1, t.TempDir()
	cfg.rows, cfg.preload, cfg.sealRows, cfg.warmOps, cfg.layerReps = 2000, 2000, 256, 10, 10
	return cfg
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables keeps BENCHMARK.json and the tables the program
// reports from saying the same thing, inside the limits of the contract.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range m.Workloads {
		if d := workloadDefs[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, e := range m.EndToEnd {
		want := endToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[want.higher]
		if e.Name != want.name || e.Unit != want.unit || e.Bound != want.bound || e.Better != better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, e, want)
		}
		if !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 || seen[e.Name] {
			t.Errorf("end-to-end metric %q breaks the contract's limits", e.Name)
		}
		seen[e.Name] = true
	}
	if len(m.PerLayer) != len(perLayerNames) || len(m.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayerNames))
	}
	for i, e := range m.PerLayer {
		if want := perLayerNames[i]; e.Name != want[0] || e.Unit != want[1] {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s (%s), the program %s (%s)", i, e.Name, e.Unit, want[0], want[1])
		}
		if !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) || seen[e.Name] || (e.Better != "higher" && e.Better != "lower") {
			t.Errorf("per-layer metric %q breaks the contract's limits", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestSmoke runs both passes of every workload at toy size and checks that
// each reports exactly the metrics BENCHMARK.json names, all finite, with no
// failed operation.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(def, smallConfig(t), traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			want := map[string]string{}
			if traced {
				for _, e := range m.PerLayer {
					want[e.Name] = e.Unit
				}
			} else {
				for _, e := range m.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			got := rep.Result.Metrics
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(got), len(want))
			}
			for name, unit := range want {
				g, ok := got[name]
				if !ok || g.Unit != unit || math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", def.name, traced, name, g, ok, unit)
				}
				if !traced && g.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; every workload must measure it", def.name, name, g.Value)
				}
			}
			if rep.Result.Failed != 0 || !rep.Result.Correct || rep.FailedRatio != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", def.name, traced, rep.Result.Failed, rep.Result.Attempted, rep.Problems)
			}
		}
	}
}

// TestTracedPassLeavesServerUnchanged replays explore_hot at a fixed number
// of queries with and without the tracing wrappers: the result cache must
// behave identically and every response must be the same frame, byte for
// byte. (A response replayed from the cache carries the statistics of its
// first evaluation: how long it took, and probe counts that depend on which
// shard interiors the partial cache already held, i.e. on how the two
// connections' warm-ups interleaved. No two runs share those, traced or not,
// so the stats block is dropped before comparing.)
func TestTracedPassLeavesServerUnchanged(t *testing.T) {
	def, _ := findWorkload("explore_hot")
	frames := func(tr *tracer) (hitRate float64, out [][]byte) {
		cfg := smallConfig(t)
		cfg.opLimit, cfg.keepFrames = 200, true
		_, err := runPass(def, &cfg, tr, func(p *pass, w workload) {
			hits, misses := p.cache1.Hits-p.cache0.Hits, p.cache1.Misses-p.cache0.Misses
			hitRate = ratio(float64(hits), float64(hits+misses))
			if p.o.failed != 0 {
				t.Errorf("%d operations failed: %v", p.o.failed, p.o.problems)
			}
			for _, e := range w.(*explore).ex {
				if len(e.resps) != cfg.opLimit {
					t.Fatalf("kept %d responses, want %d", len(e.resps), cfg.opLimit)
				}
				for _, r := range e.resps {
					c := *r
					c.Stats = nil
					var buf bytes.Buffer
					if err := wire.WriteFrame(&buf, &c); err != nil {
						t.Fatal(err)
					}
					out = append(out, buf.Bytes())
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return hitRate, out
	}
	plainRate, plain := frames(nil)
	tracedRate, traced := frames(newTracer())
	if plainRate != tracedRate || plainRate < 0.9 {
		t.Errorf("cache hit rate %v untraced, %v traced; want equal and above 0.9", plainRate, tracedRate)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("response frames differ between the untraced and the traced pass")
	}
}

// TestWrappersForwardOptionalInterfaces pins the type assertions the server
// makes on what it is handed.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	st := newStack(newTracer())
	defer st.close()
	dir, err := st.tempDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store, err := st.addStore("feed", dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	q := st.querier(store.Engine())
	if _, ok := q.(interface{ EpochSeq() uint64 }); !ok {
		t.Error("traced querier hides EpochSeq")
	}
	if _, ok := q.(interface{ NumShards() int }); !ok {
		t.Error("traced querier hides NumShards")
	}
	var ingest wire.LiveIngest = &tracedStoreIngest{tracedIngest: tracedIngest{LiveIngest: store, tr: st.tr}, provider: store}
	if p, ok := ingest.(wire.RegistryProvider); !ok || p.Registry() != store.Registry() {
		t.Error("traced store ingest hides the store's registry")
	}
	var plain wire.LiveIngest = &tracedIngest{LiveIngest: store, tr: st.tr}
	if _, ok := plain.(wire.RegistryProvider); ok {
		t.Error("traced plain ingest must not claim a registry")
	}
	before := q.(interface{ EpochSeq() uint64 }).EpochSeq()
	if _, _, err := ingest.Append(1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if after := q.(interface{ EpochSeq() uint64 }).EpochSeq(); after == before {
		t.Error("EpochSeq did not move through the wrapper")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanClientAppend, Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: spanIngestAppend, Start: 10e6, End: 60e6},
		{ID: 3, Parent: 2, Name: spanWALFsync, Start: 20e6, End: 50e6},
	}
	self := selfTimes(spans)
	if self[spanClientAppend] != 50 || self[spanIngestAppend] != 20 || self[spanWALFsync] != 30 {
		t.Errorf("self times %v", self)
	}
}
