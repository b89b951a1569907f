package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// shortWorkloads are every workload, shortened to a few ops.
func shortWorkloads() []workload {
	r := defaultReplay()
	r.Window, r.Steps, r.BurstEvery, r.Burst = 6, 4, 2, 3
	s := defaultShuffle()
	s.Keys, s.Records, s.Pairs, s.Jobs = 1000, 2000, 2, 3
	c := defaultChurn()
	c.Live, c.Cycles, c.Lines, c.Memory = 4, 4, 600, 24<<20
	return []workload{r.workload(), s.workload(), c.workload()}
}

// fingerprint renders everything a pass must reproduce exactly for a seed:
// per-job virtual delays, checked results, virtual time, and every exact
// per-layer metric.
func fingerprint(p passResult) string {
	var b strings.Builder
	for _, d := range p.vdelays {
		fmt.Fprintf(&b, "delay %d\n", int64(d))
	}
	for _, r := range p.results {
		fmt.Fprintf(&b, "result %d\n", r)
	}
	fmt.Fprintf(&b, "vtime %d jobs %d\n", int64(p.vtime), p.jobs)
	for _, s := range perLayerSpecs {
		if s.exact {
			fmt.Fprintf(&b, "%s %v\n", s.name, p.layer[s.name])
		}
	}
	return b.String()
}

func tracedFingerprint(t *testing.T, w workload, seed int64, par int) string {
	t.Helper()
	p, err := runPass(w, options{seed: seed, par: par}, newTracer(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.failedOps) > 0 {
		t.Fatalf("%s seed %d par %d: %d ops failed: %s", w.name, seed, par, len(p.failedOps), p.firstFailure)
	}
	return fingerprint(p)
}

func TestVirtualFingerprintDeterministic(t *testing.T) {
	for _, w := range shortWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			par1 := tracedFingerprint(t, w, 1, 1)
			par2 := tracedFingerprint(t, w, 1, 2)
			if par1 != par2 {
				t.Fatalf("parallelism 1 and 2 differ:\n%s\nvs\n%s", par1, par2)
			}
			if again := tracedFingerprint(t, w, 1, 2); again != par2 {
				t.Fatalf("two runs with seed 1 differ:\n%s\nvs\n%s", par2, again)
			}
			if other := tracedFingerprint(t, w, 2, 2); other == par2 {
				t.Fatal("seed 2 gives the fingerprint of seed 1: the seed does not reach the generator")
			}
		})
	}
}

func TestInjectedMismatchFails(t *testing.T) {
	for _, w := range shortWorkloads() {
		p, err := runPass(w, options{seed: 1, par: 2, inject: true}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.failedOps) != 1 || !strings.Contains(p.firstFailure, "reference") {
			t.Errorf("%s: injected mismatch gave %d failed ops (%q), want 1", w.name, len(p.failedOps), p.firstFailure)
		}
	}
}

// burn spins for about d, checking the clock rarely so nearly every
// sample lands in its own frame.
func burn(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			n += i ^ n
		}
	}
	return n
}

func TestCPUProfileFraction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "timed"), func(context.Context) { burn(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	hit, base := p.fraction("phase", "timed", "perfbench.burn")
	if base == 0 || float64(hit) < 0.8*float64(base) {
		t.Fatalf("burn holds %d of %d labelled samples, want most", hit, base)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for n := range workloads {
		ours = append(ours, n)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", names, ours)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, command %+v", kind, i, m, w)
			}
			if w := want[i]; w.unit == "count" && !w.exact {
				t.Errorf("%s: %s is in unit count but does not repeat exactly", kind, w.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndSpecs)
	check("per_layer", spec.PerLayer, perLayerSpecs)
}
