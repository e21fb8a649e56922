// Command perfbench is the repository benchmark: it runs one workload
// against the real RPC stack in this process and prints every metric by
// name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation in the stack. With --trace 1 they are the per-layer ones:
// program counters over an untraced window, then spans and frame counts
// from a traced run with one operation in flight.
//
// --repeat N runs each workload N times, each in a fresh process with its
// own seed, and prints every metric's median and quartiles.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of each measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload (or --workload all) this many times in fresh processes and summarize")
	depth := flag.Int("depth", 0, fmt.Sprintf("calls each bulk_udp caller keeps in flight, 1 to %d (0: %d)", maxDepth, bulkUDP.depth))
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) || *depth < 0 || *depth > maxDepth {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be at least 1, --trace 0 or 1 and --depth 0 to %d\n", maxDepth)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*name, *seed, *seconds, *trace, *depth, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	fmt.Println("machine:", fingerprint())
	res, err := run(w, options{seed: *seed, seconds: *seconds, traced: *trace == 1, depth: *depth})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

var workloads = map[string]*workload{
	smallMem.name: smallMem,
	bulkUDP.name:  bulkUDP,
	kvZipf.name:   kvZipf,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fingerprint records the machine a figure came from.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q kernel=%s go=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, kernel, runtime.Version())
}

// repeatRuns re-executes this binary n times per workload, seeds seed,
// seed+1, ..., and prints each metric's median and quartiles, with the
// interquartile range as a share of the median (the benchmark's spread).
func repeatRuns(name string, seed int64, seconds, trace, depth, n int) error {
	names := []string{name}
	if name == "all" {
		names = workloadNames()
	} else if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println("machine:", fingerprint())
	for _, wl := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var attempted, failed int64
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--depth", strconv.Itoa(depth))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, s, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: outputs failed their checks", wl, s)
			}
			attempted += r.Attempted
			failed += r.Failed
			var keys []string
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Printf("%s seed %d:", wl, s)
			for _, k := range keys {
				fmt.Printf(" %s=%.4g", k, r.Metrics[k].Value)
			}
			fmt.Println()
		}
		fmt.Printf("\n%s: %d runs, %d attempted, %d failed\n", wl, n, attempted, failed)
		fmt.Printf("  %-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
		var keys []string
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q := quartiles(values[k])
			spread := 0.0
			if q[1] != 0 {
				spread = (q[2] - q[0]) / q[1]
			}
			fmt.Printf("  %-34s %14.4f %14.4f %14.4f %7.1f%%  %s\n", k, q[0], q[1], q[2], 100*spread, units[k])
		}
	}
	return nil
}

// quartiles returns the three cut points that Python's
// statistics.quantiles(data, n=4) gives (its default "exclusive" method),
// so the spread printed here is the one other tooling computes.
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q
}
