// Command perfbench is the repository's end-to-end benchmark. It stands up
// simulated 8-machine memory clouds in this process, drives one seeded
// workload through the public APIs, checks every output against an oracle
// it computes itself from the generator's edge stream, and prints the
// metrics as one JSON line:
//
//	bash perfbench/run.sh --workload people-search --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - people-search: the paper's online headline (§5.1, Fig 12(a)). Read-only,
//     latency-bound queries over a power-law social graph.
//   - pagerank: the paper's offline headline (Fig 12(b)/(c)). Throughput-bound
//     BSP jobs (PageRank, BFS) over an R-MAT graph.
//   - ingest: writes beside reads over TCP loopback, with buffered logging,
//     through the batched write pipeline.
//
// With --trace 0 the JSON carries the end-to-end metrics of an untraced
// window. With --trace 1 the run measures an untraced window, then the same
// work again with benchmark-side spans and obs registry deltas, and the JSON
// carries the per-layer metrics derived from that traced window. A
// human-readable report always goes to standard error, and the spans of a
// traced run are written to .bench_build/traces/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"trinity/internal/obs"
)

// machines is the size of every simulated cloud.
const machines = 8

// readPeriod paces the reader every workload runs beside its main load:
// it samples single-key read latency without taking a core from the load.
const readPeriod = time.Millisecond

// runLimit bounds a whole run, so a wedged call cannot keep the process
// past the benchmark's time budget.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	e2e               []layerMetric // from the untraced window
	layers            []layerMetric // from the traced window (trace runs only)
	sanity            regSnap       // registry delta over the whole run
	report            []string
	tracer            *tracer
}

// metric is one value of the JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"people-search": runPeopleSearch,
	"pagerank":      runPageRank,
	"ingest":        runIngest,
}

var selfTests = map[string]func() error{
	"people-search": selfTestPeopleSearch,
	"pagerank":      selfTestPageRank,
	"ingest":        selfTestIngest,
}

func main() {
	var cfg config
	var seed int64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "people-search, pagerank or ingest")
	flag.Int64Var(&seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 measures per-layer metrics from a traced window")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload people-search|pagerank|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.seed, cfg.trace = uint64(seed), trace == 1

	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	// The checker must reject a corrupted result, or a pass means nothing.
	selfErr := selfTests[cfg.workload]()
	if selfErr != nil {
		fmt.Fprintf(os.Stderr, "self-test FAILED: %v\n", selfErr)
	} else {
		fmt.Fprintln(os.Stderr, "self-test: the checker rejected every corrupted result")
	}

	inuseBefore := bufInUse()
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	sanity, suspect := sanityCheck(out.sanity, settleInUse(inuseBefore)-inuseBefore)

	fmt.Fprintf(os.Stderr, "workload %s seed %d seconds %d trace %v (GOMAXPROCS %d)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	for _, line := range out.report {
		fmt.Fprintln(os.Stderr, line)
	}
	printMetrics("end-to-end (untraced window)", out.e2e)
	if cfg.trace {
		printMetrics("per-layer (traced window)", fillLayers(out.layers))
	}
	printMetrics("sanity (whole run)", sanity)
	if suspect {
		fmt.Fprintln(os.Stderr, "SUSPECT RUN: a fault counter is non-zero or leases leaked; do not average this run in")
	}
	if out.tracer != nil {
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", cfg.workload, cfg.seed)
		if err := out.tracer.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}

	res := result{
		Correct:   selfErr == nil && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	chosen := out.e2e
	if cfg.trace {
		chosen = append(fillLayers(out.layers), sanity...)
	}
	for _, m := range chosen {
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// noteFailure counts one failed or mismatched operation and prints the
// first few.
func noteFailure(failed *int64, err error) {
	*failed++
	if *failed <= 5 {
		fmt.Fprintln(os.Stderr, "MISMATCH:", err)
	}
}

func printMetrics(title string, ms []layerMetric) {
	fmt.Fprintf(os.Stderr, "-- %s\n", title)
	sorted := append([]layerMetric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		if m.base != "" {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-8s (%s)\n", m.name, m.value, m.unit, m.base)
		} else {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}

// bufInUse reads the process-wide count of outstanding buffer leases.
func bufInUse() float64 {
	for _, v := range obs.Default().Snapshot() {
		if v.Name == "buf.inuse" {
			return float64(v.Int)
		}
	}
	return 0
}

// settleInUse waits briefly for closed transports to drain their queues
// (leases are released by delivery goroutines after Close returns) and
// returns the lease count then.
func settleInUse(want float64) float64 {
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := bufInUse()
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// e2eMetrics builds the end-to-end metric list every workload reports.
// An operation is a query (people-search), a PageRank-plus-BFS round
// (pagerank) or an acknowledged cell write (ingest); a get is one
// single-key read of a cell owned by another machine. Throughput and
// latency quantiles are medians over the window's slices (see
// subQuantile).
func e2eMetrics(setups []float64, memBytes float64, window time.Duration, ops, gets series) []layerMetric {
	sub := func(s series, q float64) (float64, string) {
		return subQuantile(s, window, q), fmt.Sprintf("median over %d slices, %d samples in all", subWindows, len(s))
	}
	op50, b1 := sub(ops, 0.5)
	op90, b2 := sub(ops, 0.9)
	get50, b3 := sub(gets, 0.5)
	get99, b4 := sub(gets, 0.99)
	return []layerMetric{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
		{"memory_mb", "MB", memBytes / (1 << 20), "Cloud.MemoryUsage"},
		{"ops_per_s", "1/s", median(sliceRates(ops, window)), fmt.Sprintf("median over %d slices, %d ops in %.2fs", subWindows, len(ops), window.Seconds())},
		{"op_p50_ms", "ms", ms(op50), b1},
		{"op_p90_ms", "ms", ms(op90), b2},
		{"get_p50_us", "us", us(get50), b3},
		{"get_p99_us", "us", us(get99), b4},
	}
}

// tailLine describes a latency distribution as its median and the highest
// percentile that leaves at least ten samples beyond it.
func tailLine(name string, l latencies) string {
	s := l.sorted()
	q := tailQuantile(len(s))
	return fmt.Sprintf("  %-10s n=%-7d p50=%9.3fms p%g=%9.3fms", name, len(s), ms(quantile(s, 0.5)), q*100, ms(quantile(s, q)))
}
