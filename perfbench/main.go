// Command perfbench is the repository's benchmark: it runs one of three
// seeded workloads — the paper's three applications — against the real
// Thetacrypt stack, checks every output, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) as one
// JSON object on the last line of standard output.
//
//	perfbench --workload block-decrypt --seed 1 --seconds 30 --trace 0
//	perfbench compare -base <dir> -head <dir> [-bench BENCHMARK.json]
//
// Workloads (n=4, t=1 committees, all nodes in this process):
//
//   - block-decrypt: blocks of 16 SG02 ciphertexts are ordered through a
//     tob.Sequencer and decrypted with one SubmitBatch+WaitEach on an
//     embedded memnet cluster; closed loop, one block in flight.
//   - beacon: CKS05 coins one at a time on a memnet cluster with 5 ms
//     one-way delay.
//   - wallet-sign: two closed-loop SDK clients send a 3:1 KG20:BLS04
//     signing mix over loopback HTTP to four secure tcpnet nodes.
//
// A traced run measures half its window untraced and half with spans
// and layer probes on (the difference is bench.trace_overhead_frac),
// then times the crypto rungs in isolation. Spans go to
// .bench_build/traces, full result records (seed included) to
// .bench_build/results, which compare reads: copy the parent's and the
// change's records into two directories and pass them as -base and
// -head. The benchmark's own tests run with go -C perfbench test ./...
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/api"
)

const (
	// processDeadline ends the whole process within a few minutes, so a
	// stuck stack is abandoned (without printing a result) before then.
	processDeadline = 170 * time.Second
	resultsDir      = ".bench_build/results"
	tracesDir       = ".bench_build/traces"
)

// Set-up is repeated at least minSetups times and until minSetupTime
// has been spent in it (at most maxSetups times), and setup_s is the
// median: a few-millisecond set-up measured only a handful of times
// reads a momentary stall of the host as a slow set-up.
const (
	minSetups    = 5
	maxSetups    = 25
	minSetupTime = time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runMain(os.Args[1:]))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// A wedged stack must not outlive the run's time limit; exiting
	// ends every node, link and server this process started.
	watchdog := time.AfterFunc(processDeadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), processDeadline)
	defer cancel()

	rec, err := run(ctx, w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := saveRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		return 1
	}
	return 0
}

// workload is one benchmark scenario: how to set its stack up, and how
// many calls of each crypto rung one of its operations costs (for
// crypto.explained_frac).
type workload struct {
	setup func(ctx context.Context, seed int64, tr *tracer) (deployment, setupTimes, error)
	calls map[string]float64
}

var workloads = map[string]workload{
	"block-decrypt": {setup: setupBlockDecrypt, calls: perNodeCalls("sg02", 4, 8, 4)},
	"beacon":        {setup: setupBeacon, calls: perNodeCalls("cks05", 4, 8, 4)},
	"wallet-sign":   {setup: setupWallet, calls: walletCalls()},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// deployment is one stack a workload set up and drives.
type deployment interface {
	// warm runs untimed operations, so caches fill and lazy set-up ends,
	// and makes the inputs for the given total measured time.
	warm(ctx context.Context, total time.Duration) error
	// drive runs one measured window.
	drive(ctx context.Context, window time.Duration, tr *tracer) (windowResult, error)
	// check verifies every output the windows produced and returns how
	// many were wrong.
	check(ctx context.Context) (int, error)
	// nodeStats snapshots every node's engine (with its transport and
	// crypto counters).
	nodeStats() []api.EngineStats
	// probes returns the layer counters the workload's wrappers keep.
	probes() *probes
	close()
}

// setupTimes is one set-up of a deployment, start to ready to serve.
type setupTimes struct {
	total, deal, dkg, links, poolWarm time.Duration
}

// opResult is one operation's outcome in a measured window.
type opResult struct {
	Attr    string // scheme of a wallet-sign request
	Latency time.Duration
	Server  time.Duration // Result.ServerLatency
	Err     error
}

// windowResult is one measured window.
type windowResult struct {
	ops     []opResult
	elapsed time.Duration // start to the last completion
	cpu     time.Duration
	alloc   uint64
	rssP95  float64 // MiB, over samples taken every rssPeriod
}

// rssPeriod paces the resident-memory samples of a window. The 95th
// percentile of many samples is reported rather than the single peak
// (ru_maxrss), which read 30 to 43 MB across identical beacon runs as
// garbage collections fell differently against load bursts.
const rssPeriod = 25 * time.Millisecond

// measure wraps a drive call with the process CPU and allocation
// deltas and the resident-memory samples.
func measure(ctx context.Context, d deployment, window time.Duration, tr *tracer) (windowResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop, rss := make(chan struct{}), make(chan float64)
	go func() {
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		samples := []float64{residentMB()}
		for {
			select {
			case <-t.C:
				samples = append(samples, residentMB())
			case <-stop:
				rss <- percentile(samples, 95)
				return
			}
		}
	}()
	c0 := cpuTime()
	res, err := d.drive(ctx, window, tr)
	res.cpu = cpuTime() - c0
	close(stop)
	res.rssP95 = <-rss
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	if err == nil && len(res.ops) == 0 {
		err = errors.New("no operation completed in the window")
	}
	return res, err
}

// record is a run's full result: the printed object plus what compare
// and a reader need to place it (workload, seed, sample counts).
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Samples   int               `json:"samples"`
	P95Beyond int               `json:"p95_beyond"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parallel runs fn(0..n-1) on one worker per CPU and returns the first
// error. It keeps input preparation and output checks, which run outside
// the measured window, short.
func parallel(n int, fn func(i int) error) error {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		err  error
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if e := fn(i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// run sets the workload up repeatedly (keeping the last stack),
// warms it, measures, checks every output, and assembles the record.
func run(ctx context.Context, w workload, o options) (*record, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	phase := time.Now()
	logPhase := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s in %.1fs (peak RSS %.0f MB)\n",
			o.workload, what, time.Since(phase).Seconds(), peakRSSMB())
		phase = time.Now()
	}
	var d deployment
	var setups []setupTimes
	var spent time.Duration
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < minSetupTime) {
		if d != nil {
			d.close()
		}
		nd, st, err := w.setup(ctx, o.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", o.workload, err)
		}
		d = nd
		setups = append(setups, st)
		spent += st.total
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	totals := make([]float64, len(setups))
	for i, st := range setups {
		totals[i] = st.total.Seconds()
	}
	logPhase(fmt.Sprintf("set up %d times (median %.4fs)", len(setups), median(totals)))
	total := time.Duration(o.seconds * float64(time.Second))
	if err := d.warm(ctx, total); err != nil {
		return nil, fmt.Errorf("warm %s: %w", o.workload, err)
	}
	logPhase("warmed up")

	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	var wins []windowResult
	var layer layerSnap
	if !o.trace {
		res, err := measure(ctx, d, total, nil)
		if err != nil {
			return nil, fmt.Errorf("measure %s: %w", o.workload, err)
		}
		wins = []windowResult{res}
	} else {
		plain, err := measure(ctx, d, total/2, nil)
		if err != nil {
			return nil, fmt.Errorf("measure %s untraced half: %w", o.workload, err)
		}
		tr.on.Store(true)
		samp := startSampler(d)
		before := snapLayers(d)
		traced, err := measure(ctx, d, total/2, tr)
		layer = snapLayers(d).minus(before)
		layer.maxima = samp.stop()
		tr.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("measure %s traced half: %w", o.workload, err)
		}
		wins = []windowResult{plain, traced}
	}
	logPhase("measured")

	wrong, err := d.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("check %s outputs: %w", o.workload, err)
	}
	d.close()
	d = nil
	logPhase("checked outputs")

	for _, win := range wins {
		rec.Attempted += len(win.ops)
		for _, op := range win.ops {
			if op.Err != nil {
				if rec.Failed == 0 {
					fmt.Fprintf(os.Stderr, "perfbench: %s operation failed: %v\n", o.workload, op.Err)
				}
				rec.Failed++
			}
		}
	}
	rec.Failed += wrong
	rec.Correct = rec.Failed == 0
	last := wins[len(wins)-1]
	rec.Samples = len(last.ops)
	rec.P95Beyond = beyond(len(last.ops), 95)
	if !o.trace {
		rec.Metrics = endToEnd(wins[0], setups, rec)
		return rec, nil
	}
	spans := tr.snapshot()
	path := filepath.Join(tracesDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeTrace(path, spans); err != nil {
		return nil, err
	}
	rungs, err := runRungs()
	if err != nil {
		return nil, fmt.Errorf("crypto rungs: %w", err)
	}
	logPhase("timed crypto rungs")
	rec.Metrics = perLayer(w, wins[0], wins[1], layer, indexSpans(spans), rungs, setups)
	return rec, nil
}

// endToEnd computes the user-visible metrics of an untraced window.
func endToEnd(win windowResult, setups []setupTimes, rec *record) map[string]metric {
	lat := latencies(win.ops, "")
	ops := float64(len(win.ops))
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.total.Seconds()
	}
	return map[string]metric{
		"throughput_ops":  {ops / win.elapsed.Seconds(), "ops/s"},
		"latency_p50_ms":  {percentile(lat, 50), "ms"},
		"latency_p95_ms":  {percentile(lat, 95), "ms"},
		"ok_frac":         {max(0, 1-float64(rec.Failed)/float64(rec.Attempted)), "ratio"},
		"cpu_ms_per_op":   {ms(win.cpu) / ops, "ms"},
		"alloc_mb_per_op": {float64(win.alloc) / (1 << 20) / ops, "MB"},
		"rss_p95_mb":      {win.rssP95, "MB"},
		"setup_s":         {median(totals), "s"},
	}
}

// latencies returns the latencies (ms) of the window's successful
// operations, optionally only those with the given attribute.
func latencies(ops []opResult, attr string) []float64 {
	var out []float64
	for _, op := range ops {
		if op.Err == nil && (attr == "" || op.Attr == attr) {
			out = append(out, ms(op.Latency))
		}
	}
	return out
}

// printRecord prints a readable summary, then the result object as the
// last line of standard output.
func printRecord(rec *record) error {
	mode := "end-to-end"
	if rec.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%g %s: %d samples in the window (%d beyond p95), attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, rec.Samples, rec.P95Beyond, rec.Attempted, rec.Failed, rec.Correct)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("#   %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(out))
	return nil
}

// saveRecord writes the full record (with its seed) for compare.
func saveRecord(rec *record) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	mode := 0
	if rec.Trace {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, mode, time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultsDir, name), append(data, '\n'), 0o644)
}
