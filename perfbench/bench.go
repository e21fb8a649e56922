package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/kvstore"
	"fireflyrpc/internal/marshal"
)

const (
	// setupReps is how many times a run builds and warms its system;
	// setup_s is the median, and every build but the last is torn down
	// and checked for leaked goroutines.
	setupReps = 3
	// settleWait bounds how long a closed system may take for its
	// goroutines to exit.
	settleWait = 5 * time.Second
	// perfettoOps is how many traced operations go into the span file,
	// which keeps it small enough to open.
	perfettoOps = 300
)

type options struct {
	seed    int64
	seconds int
	traced  bool
	depth   int // calls in flight per caller on workloads that pipeline; 0: the workload's own
}

// traceDir is where the traced run writes its span file, relative to the
// repository root the benchmark runs from; it is the build directory,
// which the repository ignores.
const traceDir = ".bench_build"

// workload is one traffic mix against one assembly of the stack.
type workload struct {
	name    string
	classes []string // operation classes, indexed by the class a caller reports
	heavy   []bool   // which classes make up heavy_p50_us
	// warmOps is the untimed warm-up, in operations across all callers.
	// It is a count, not a duration, so that a faster stack also warms
	// up faster and setup_s shows work moved into set-up.
	warmOps int64
	// callers is the number of closed-loop caller goroutines. One caller
	// leaves the second vCPU of the 2-vCPU reference machine to the
	// serving side; with two, the latency figures also measure how the
	// callers queue behind each other for the vCPUs, and move more from
	// run to run.
	callers int
	// depth is the number of calls each caller keeps in flight.
	depth int
	// build assembles the system. rec is nil for untraced runs, which
	// then carry no instrumentation at all.
	build func(seed int64, rec *recorder) (*world, error)
	// shapes lists the workload's argument and result encodings, one per
	// class, for the marshal-only measurement.
	shapes func(seed int64) []shape
	// mix gives each class's relative weight, for the marshal-only
	// measurement.
	mix []int
}

// world is one built system plus what the benchmark reads from it.
type world struct {
	nodes   []*core.Node // every node, for protocol and transport counters
	servers []*core.Node // the nodes serving calls, for max_replica_share
	cluster *cluster.Client
	stores  []*kvstore.Store
	kv      *kvState
	// newCaller makes closed-loop caller id with depth calls in flight.
	newCaller func(id, depth int) caller
	close     func()
}

// caller runs operations until stop is set or it has attempted limit
// operations (limit 0: no limit), recording each into s.
type caller interface {
	loop(stop *atomic.Bool, limit int64, s *samples)
}

// checkError marks an answer that failed an output check, as opposed to
// an operation the stack reported as failed.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func wrong(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

// samples is one caller's record of one phase.
type samples struct {
	lat     []int64 // ns, one per operation answered correctly
	cls     []uint8 // class of each lat entry
	ops     int64   // attempted
	failed  int64   // the stack returned an error
	bad     int64   // the answer failed a check
	badMsg  string
	failMsg string
	rec     *recorder // traced phases record an op span per operation
	// tick counts the slices of the window that have ended; marks[k] is
	// where slice k+1 starts in lat.
	tick  *atomic.Int32
	cur   int32
	marks []int
}

func (s *samples) done(t0, t1 int64, class int, err error) {
	for k := s.tick.Load(); s.cur < k; s.cur++ {
		s.marks = append(s.marks, len(s.lat))
	}
	s.ops++
	if err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			s.bad++
			if s.badMsg == "" {
				s.badMsg = err.Error()
			}
		} else {
			s.failed++
			if s.failMsg == "" {
				s.failMsg = err.Error()
			}
		}
		return
	}
	s.lat = append(s.lat, t1-t0)
	s.cls = append(s.cls, uint8(class))
	if s.rec != nil {
		s.rec.op(t0, t1, class)
	}
}

// syncCaller is a caller with one operation in flight: op performs one
// operation, checks its answer and reports its class.
type syncCaller func() (class int, err error)

// more reports whether a caller that has started n operations should
// start another.
func (s *samples) more(stop *atomic.Bool, n, limit int64) bool {
	return !stop.Load() && (limit == 0 || n < limit) && (s.rec == nil || !s.rec.full())
}

func (op syncCaller) loop(stop *atomic.Bool, limit int64, s *samples) {
	for s.more(stop, s.ops, limit) {
		t0 := now()
		class, err := op()
		s.done(t0, now(), class, err)
	}
}

// phase is the merged record of all callers over one phase.
type phase struct {
	elapsed time.Duration
	ops     int64
	failed  int64
	bad     int64
	badMsg  string
	failMsg string
	lat     []int64 // sorted
	byClass [][]int64
	slices  []slice
}

// slice is one equal part of a timed phase. The end-to-end figures are
// medians over slices, so a burst of outside load in one second of a run
// moves them less than it moves the whole-window figures.
type slice struct {
	dur   time.Duration
	ran   float64 // share of dur the machine's vCPUs ran (see ranShare)
	cpu   time.Duration
	lat   []int64 // sorted
	heavy []int64 // sorted
}

// opsPerS counts the slice's seconds as the machine ran them.
func (s slice) opsPerS() float64 { return float64(len(s.lat)) / (s.dur.Seconds() * s.ran) }
func (s slice) cpuPerOp() float64 {
	return float64(s.cpu.Nanoseconds()) / 1e3 / float64(len(s.lat))
}

// runPhase runs every caller concurrently: for nslices slices of
// sliceDur when nslices > 0, and otherwise until each has attempted
// perCaller operations. probe, when non-nil, is called just before the
// callers start and just after they stop, so what it reads excludes the
// benchmark's own bookkeeping.
func runPhase(cs []caller, wl *workload, nslices int, sliceDur time.Duration, perCaller int64, capHint int, rec *recorder, probe func(end bool)) phase {
	var stop atomic.Bool
	var tick atomic.Int32
	ss := make([]*samples, len(cs))
	for i := range ss {
		ss[i] = &samples{lat: make([]int64, 0, capHint), cls: make([]uint8, 0, capHint), rec: rec, tick: &tick}
	}
	timer := time.NewTimer(time.Hour)
	if probe != nil {
		probe(false)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cs {
		s := ss[i]
		wg.Add(1)
		go func(c caller) {
			defer wg.Done()
			limit := perCaller
			if nslices > 0 {
				limit = 0
			}
			c.loop(&stop, limit, s)
		}(c)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	// Slices end on the clock, or early when every caller has stopped by
	// itself (a traced caller whose span buffer filled up).
	bounds := []time.Time{start}
	cpus := []time.Duration{cpuTime()}
	ticks := []hostTicks{readHostTicks()}
	for k := 1; k <= nslices; k++ {
		timer.Reset(time.Until(start.Add(time.Duration(k) * sliceDur)))
		early := false
		select {
		case <-timer.C:
		case <-finished:
			early = true
		}
		cpus = append(cpus, cpuTime())
		ticks = append(ticks, readHostTicks())
		bounds = append(bounds, time.Now())
		tick.Store(int32(k))
		if early {
			nslices = k
			break
		}
	}
	timer.Stop()
	if nslices > 0 {
		stop.Store(true)
	}
	<-finished
	elapsed := time.Since(start)
	if probe != nil {
		probe(true)
	}
	p := phase{elapsed: elapsed, byClass: make([][]int64, len(wl.classes))}
	for _, s := range ss {
		p.ops += s.ops
		p.failed += s.failed
		p.bad += s.bad
		if p.badMsg == "" {
			p.badMsg = s.badMsg
		}
		if p.failMsg == "" {
			p.failMsg = s.failMsg
		}
		p.lat = append(p.lat, s.lat...)
		for i, c := range s.cls {
			p.byClass[c] = append(p.byClass[c], s.lat[i])
		}
		for len(s.marks) < nslices {
			s.marks = append(s.marks, len(s.lat))
		}
	}
	slices.Sort(p.lat)
	for _, l := range p.byClass {
		slices.Sort(l)
	}
	for k := 0; k < nslices; k++ {
		sl := slice{dur: bounds[k+1].Sub(bounds[k]), ran: ranShare(ticks[k], ticks[k+1]), cpu: cpus[k+1] - cpus[k]}
		for _, s := range ss {
			from := 0
			if k > 0 {
				from = s.marks[k-1]
			}
			for i := from; i < s.marks[k]; i++ {
				sl.lat = append(sl.lat, s.lat[i])
				if wl.heavy[s.cls[i]] {
					sl.heavy = append(sl.heavy, s.lat[i])
				}
			}
		}
		slices.Sort(sl.lat)
		slices.Sort(sl.heavy)
		p.slices = append(p.slices, sl)
	}
	return p
}

// overSlices is the median over the phase's slices of f.
func (p phase) overSlices(f func(slice) float64) float64 {
	var v []float64
	for _, s := range p.slices {
		if len(s.lat) > 0 {
			v = append(v, f(s))
		}
	}
	return median(v)
}

// quantile interpolates the q-quantile of sorted ns samples, in µs.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1]) / 1e3
	}
	f := pos - float64(i)
	return (float64(sorted[i])*(1-f) + float64(sorted[i+1])*f) / 1e3
}

func median(v []float64) float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// hostTicks is the first line of /proc/stat, summed over the machine's
// vCPUs: the ticks the hypervisor gave to other guests while a vCPU was
// ready to run (steal), and all ticks.
type hostTicks struct{ steal, total int64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostTicks{}
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseInt(f[8], 10, 64)
	return t
}

// ranShare is the share of the interval between two readings in which the
// machine's vCPUs were not held off by the hypervisor: 1 minus the steal
// share. Throughput and set-up time count only that share of wall-clock
// time, so other guests on a shared host move them less. Where there is no
// steal, or no /proc/stat, it is 1 and the figures are plain wall-clock.
func ranShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 1
	}
	return 1 - float64(b.steal-a.steal)/float64(b.total-a.total)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle waits for the goroutine count to fall back to base after a
// system was closed; a count that stays above it is a leak.
func settle(base int) error {
	deadline := time.Now().Add(settleWait)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return wrong("after Close %d goroutines remain, %d before set-up", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tally accumulates what the result line reports across phases.
type tally struct {
	attempted, failed int64
	correct           bool
}

func (t *tally) add(name string, p phase) {
	t.attempted += p.ops
	t.failed += p.failed
	if p.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed, first: %s\n", name, p.failed, p.ops, p.failMsg)
	}
	if p.bad > 0 {
		t.fail(fmt.Sprintf("%s: %d answers failed their checks, first: %s", name, p.bad, p.badMsg))
	}
}

func (t *tally) fail(why string) {
	t.correct = false
	fmt.Fprintln(os.Stderr, "CHECK FAILED:", why)
}

func (t *tally) check(err error) {
	if err != nil {
		t.fail(err.Error())
	}
}

// capFor sizes each caller's sample buffers from the warm-up rate, so a
// measured window does not allocate for its own bookkeeping.
func capFor(warm phase, seconds float64, n int) int {
	rate := float64(warm.ops) / warm.elapsed.Seconds()
	return int(rate*seconds*2/float64(n)) + 4096
}

func makeCallers(w *world, n, depth int) []caller {
	cs := make([]caller, n)
	for i := range cs {
		cs[i] = w.newCaller(i, depth)
	}
	return cs
}

// run is one benchmark run of one workload.
func run(wl *workload, o options) (*result, error) {
	if err := selfTest(); err != nil {
		return nil, fmt.Errorf("output checks do not reject corrupted answers: %w", err)
	}
	t := &tally{correct: true}
	base := runtime.NumGoroutine()
	depth := wl.depth
	if o.depth > 0 && wl == bulkUDP {
		depth = o.depth
	}

	// Set-up: build, warm up, and (except for the last build) tear down.
	var setups, setupRan []float64
	var w *world
	var cs []caller
	var warm phase
	for i := 0; i < setupReps; i++ {
		t0, h0 := time.Now(), readHostTicks()
		var err error
		w, err = wl.build(o.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cs = makeCallers(w, wl.callers, depth)
		warm = runPhase(cs, wl, 0, 0, wl.warmOps/int64(wl.callers), 1024, nil, nil)
		ran := ranShare(h0, readHostTicks())
		setups = append(setups, time.Since(t0).Seconds()*ran)
		setupRan = append(setupRan, ran)
		if warm.bad > 0 {
			t.fail("warm-up: " + warm.badMsg)
		}
		if i < setupReps-1 {
			w.close()
			t.check(settle(base))
		}
	}
	fmt.Printf("setup: %.3f s each (nodes, sessions, preload, %d warm-up operations), counting the %.2f of wall-clock time the vCPUs ran\n",
		setups, wl.warmOps, setupRan)

	// Measured window, with nothing in the stack but the stack.
	capHint := capFor(warm, float64(o.seconds), wl.callers)
	var ms0, ms1 runtime.MemStats
	var c0, c1 counters
	// A traced run gives half its time to this window, for the program's
	// counters, and half to the traced system.
	nslices := o.seconds
	if o.traced {
		nslices = max(1, o.seconds/2)
	}
	p := runPhase(cs, wl, nslices, time.Second, 0, capHint, nil, func(end bool) {
		if end {
			runtime.ReadMemStats(&ms1)
			c1 = w.snapshot()
			return
		}
		c0 = w.snapshot()
		runtime.GC()
		runtime.ReadMemStats(&ms0)
	})
	w.close()
	t.check(settle(base))
	t.add("window", p)

	done := float64(len(p.lat))
	if done == 0 {
		return nil, errors.New("no operation completed in the measured window")
	}
	opsPerS := done / p.elapsed.Seconds()
	metrics := map[string]metric{}
	if !o.traced {
		metrics["ops_per_s"] = metric{p.overSlices(slice.opsPerS), "ops/s"}
		metrics["p50_us"] = metric{p.overSlices(func(s slice) float64 { return quantile(s.lat, 0.50) }), "us"}
		metrics["p90_us"] = metric{p.overSlices(func(s slice) float64 { return quantile(s.lat, 0.90) }), "us"}
		metrics["heavy_p50_us"] = metric{p.overSlices(func(s slice) float64 { return quantile(s.heavy, 0.50) }), "us"}
		metrics["cpu_us_per_op"] = metric{p.overSlices(slice.cpuPerOp), "us"}
		metrics["allocs_per_op"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / done, "count"}
		metrics["alloc_bytes_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / done, "B"}
		metrics["setup_s"] = metric{median(setups), "s"}
		minSlice := len(p.lat)
		for _, s := range p.slices {
			minSlice = min(minSlice, len(s.lat))
		}
		fmt.Printf("window: %d operations in %.3f s (%d slices, medians over slices), %d failed; "+
			"p90 over at least %d samples a slice, %d beyond it\n",
			p.ops, p.elapsed.Seconds(), len(p.slices), p.failed, minSlice, minSlice-int(math.Ceil(0.90*float64(minSlice))))
		fmt.Printf("whole window: %.1f ops/s of wall-clock time, p50 %.2f us, p90 %.2f us, p99 %.2f us\n",
			opsPerS, quantile(p.lat, 0.5), quantile(p.lat, 0.9), quantile(p.lat, 0.99))
		fmt.Print("slices (kops/s, vCPU share run, p90_us):")
		for _, s := range p.slices {
			fmt.Printf(" %.1f/%.2f/%.0f", s.opsPerS()/1e3, s.ran, quantile(s.lat, 0.90))
		}
		fmt.Println()
		for c, name := range wl.classes {
			fmt.Printf("  class %-12s %8d ops  p50 %9.2f us  p90 %9.2f us  p99 %9.2f us\n",
				name, len(p.byClass[c]), quantile(p.byClass[c], 0.5), quantile(p.byClass[c], 0.9), quantile(p.byClass[c], 0.99))
		}
	} else {
		layerCounters(metrics, c0, c1, w)
		if err := tracedRun(wl, o, base, t, metrics, opsPerS, depth); err != nil {
			return nil, err
		}
	}
	fmt.Printf("proto: %d calls sent, %d retransmissions, %d stale drops in the window\n",
		c1.callsSent-c0.callsSent, c1.retransmits-c0.retransmits, c1.staleDrops-c0.staleDrops)
	if w.kv != nil {
		d := c1.kv.sub(c0.kv)
		fmt.Printf("kvstore: after the preload of %d keys the replicas held %v; in the window %d acked puts, "+
			"%d version ties, %d GetAny answers, %d stale (%d not found)\n",
			kvKeys, w.kv.preloaded, d.puts, d.ties, d.anyReads, d.stale, d.notFound)
	}
	printMetrics(metrics)
	return &result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

func printMetrics(m map[string]metric) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// tracedRun builds the system again with every transport wrapped, runs one
// caller with one operation in flight first untraced and then traced, and
// adds the span-derived metrics.
func tracedRun(wl *workload, o options, base int, t *tally, metrics map[string]metric, untracedOps float64, depth int) error {
	rec := newRecorder()
	w, err := wl.build(o.seed, rec)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	cs := makeCallers(w, 1, 1)
	warm := runPhase(cs, wl, 0, 0, wl.warmOps/4, 1024, nil, nil)
	if warm.bad > 0 {
		t.fail("traced warm-up: " + warm.badMsg)
	}
	quarter := time.Duration(o.seconds) * time.Second / 4
	capHint := capFor(warm, quarter.Seconds(), 1)
	serial := runPhase(cs, wl, 1, quarter, 0, capHint, nil, nil)
	rec.on.Store(true)
	traced := runPhase(cs, wl, 1, quarter, 0, capHint, rec, nil)
	rec.on.Store(false)
	w.close()
	t.check(settle(base))
	t.add("serial window", serial)
	t.add("traced window", traced)

	if len(rec.ops) == 0 {
		return errors.New("no operation completed in the traced window")
	}
	a := rec.analyze()
	serialOps := float64(len(serial.lat)) / serial.elapsed.Seconds()
	tracedOps := float64(len(traced.lat)) / traced.elapsed.Seconds()
	ops := float64(len(rec.ops))
	f := rec.frames.snapshot()
	metrics["transport.frames_per_op"] = metric{float64(f.frames) / ops, "count"}
	metrics["transport.payload_efficiency"] = metric{ratio(f.payload, f.wire), "ratio"}
	metrics["transport.send_us_p50"] = metric{a.p50[spanSend], "us"}
	metrics["wire.data_frames_per_op"] = metric{float64(f.data) / ops, "count"}
	metrics["wire.ack_frames_per_op"] = metric{float64(f.acks) / ops, "count"}
	metrics["wire.cancel_frames_per_op"] = metric{float64(f.cancels) / ops, "count"}
	metrics["proto.recv_us_p50"] = metric{a.p50[spanRecv], "us"}
	metrics["proto.handoff_us_p50"] = metric{a.handoffP50, "us"}
	metrics["core.handler_us_p50"] = metric{a.p50[spanHandler], "us"}
	enc, dec := marshalCost(wl.shapes(o.seed), wl.mix, o.seed)
	metrics["marshal.enc_ns_per_op"] = metric{enc, "ns"}
	metrics["marshal.dec_ns_per_op"] = metric{dec, "ns"}
	metrics["trace.ops_per_s"] = metric{tracedOps, "ops/s"}
	metrics["trace.untraced_ops_per_s"] = metric{serialOps, "ops/s"}
	metrics["trace.overhead_pct"] = metric{100 * (serialOps/tracedOps - 1), "%"}

	fmt.Printf("ops_per_s (wall-clock): %.0f untraced with %d caller(s) at depth %d; one in flight: %.0f untraced, %.0f traced (overhead %.1f%%)\n",
		untracedOps, wl.callers, depth, serialOps, tracedOps, 100*(serialOps/tracedOps-1))
	a.print()
	if rec.dropped.Load() > 0 {
		fmt.Printf("traced: span buffer full, %d spans not recorded\n", rec.dropped.Load())
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", wl.name, o.seed))
	if err := os.WriteFile(path, rec.perfetto(a, wl.classes, perfettoOps), 0o644); err != nil {
		return err
	}
	fmt.Printf("traced: spans of the first %d operations written to %s\n", perfettoOps, path)
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// shape is one operation class's arguments and results as the stubs
// marshal them: enc writes both, dec reads both back.
type shape struct {
	size int
	enc  func(*marshal.Enc)
	dec  func(*marshal.Dec)
}

// marshalCost times the workload's encodings through marshal.Enc and
// marshal.Dec alone, drawn in the workload's mix, and returns ns per
// operation for encoding and for decoding.
func marshalCost(shapes []shape, mix []int, seed int64) (enc, dec float64) {
	rng := newRand(seed, 99)
	seq := make([]int, 1024)
	for i := range seq {
		seq[i] = pick(rng, mix)
	}
	encoded := make([][]byte, len(shapes))
	for i, s := range shapes {
		encoded[i] = make([]byte, s.size)
		e := marshal.NewEnc(encoded[i])
		s.enc(e)
		if e.Err() != nil {
			panic(fmt.Sprintf("shape %d: %v", i, e.Err()))
		}
	}
	buf := make([]byte, 0, 1<<17)
	var e marshal.Enc
	var d marshal.Dec
	const budget = 150 * time.Millisecond
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		for _, c := range seq {
			e.Reset(buf[:shapes[c].size])
			shapes[c].enc(&e)
		}
		n += len(seq)
	}
	enc = float64(time.Since(t0).Nanoseconds()) / float64(n)
	n = 0
	t0 = time.Now()
	for time.Since(t0) < budget {
		for _, c := range seq {
			d.Reset(encoded[c])
			shapes[c].dec(&d)
		}
		n += len(seq)
	}
	dec = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return enc, dec
}
