package main

import (
	"math"
	"testing"
)

func TestChecksRejectCorruptedAnswers(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// The spread the repeat mode prints must be the one Python's
// statistics.quantiles(data, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 3, 7, 1, 9}, [3]float64{2, 7, 9.5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		got := quartiles(c.data)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
}

// Each workload runs a short window end to end: its answers pass their
// checks, nothing fails, and closing it leaves no goroutine behind.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := run(workloads[name], options{seed: 7, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != 8 {
				t.Fatalf("%d end-to-end metrics, want 8", len(res.Metrics))
			}
		})
	}
}
