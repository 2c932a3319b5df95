package main

import (
	"io"
	"math"
	"testing"
)

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 100..1
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 50.5, 50},
		{95, 95.05, 5},
		{100, 100, 0},
		{0, 1, 99},
	} {
		got, beyond := percentile(xs, c.p)
		if math.Abs(got-c.want) > 1e-9 || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got, beyond := percentile([]float64{7}, 95); got != 7 || beyond != 0 {
		t.Errorf("single sample: p95 = %v with %d beyond", got, beyond)
	}
}

func TestSelfTimesSubtractsMergedChildren(t *testing.T) {
	ivs := []interval{
		{0, 100, layerEngine},
		// Overlapping children: together they cover [10, 40).
		{10, 30, layerExecLive},
		{20, 40, layerExecLive},
		// Nested inside the processor calls.
		{25, 35, layerStore},
		// A WAL op with a nested net round trip, beside the processors.
		{50, 60, layerWAL},
		{52, 55, layerNet},
		// Clipped by the window's end.
		{110, 130, layerExecRef},
	}
	got := selfTimes(0, 120, ivs)
	want := [numLayers]int64{
		layerNone:     10, // [100, 110)
		layerEngine:   60, // 100 - 30 (merged processors) - 10 (WAL)
		layerExecLive: 20, // 30 - 10 (store)
		layerExecRef:  10, // [110, 120)
		layerStore:    10,
		layerWAL:      7,
		layerNet:      3,
	}
	if got != want {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, ns := range got {
		sum += ns
	}
	if sum != 120 {
		t.Errorf("self times sum to %d, want the window's 120", sum)
	}
}

// tinyBench is a workload at a tiny wave count.
func tinyBench(t *testing.T, workload string, seed int64) *bench {
	w, err := lookupWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{w: w, seed: seed, train: 64, apply: 16, workDir: t.TempDir(), out: io.Discard}
}

func TestDigestStableAcrossRunsAndSeeded(t *testing.T) {
	digestOf := func(seed int64) string {
		out, err := tinyBench(t, "aqhi", seed).pipeline(false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return digest(out.res)
	}
	first, second := digestOf(3), digestOf(3)
	if first != second {
		t.Errorf("same seed, different digests: %.16s vs %.16s", first, second)
	}
	if other := digestOf(4); other == first {
		t.Errorf("seeds 3 and 4 share digest %.16s: the seed does not reach the workload", first)
	}
}

// The WAL+cluster workload exercises every layer the benchmark measures.
func TestTracedRunAccountsForWaveTime(t *testing.T) {
	b := tinyBench(t, "firerisk-wal-cluster", 5)
	res, shares, err := b.perLayer()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*(b.train+b.apply) {
		t.Fatalf("result %+v", res)
	}
	for _, name := range []string{"wal.appends_per_wave", "net.ships_per_wave", "store.ops_per_wave", "exec.ref_calls_per_wave", "ml.train_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if f := res.Metrics["cluster.failovers"].Value; f != 0 {
		t.Errorf("cluster.failovers = %v", f)
	}
	var sum float64
	for _, s := range shares {
		sum += s.value
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("layer shares sum to %v%% of the wave time: %v", sum, shares)
	}
}
