package main

import (
	"fmt"
	"strings"
)

// rootNames are the benchmark's request spans, one per operation type of
// every workload. A root's self time is the part of the request that no
// layer span covers.
var rootNames = []string{"khop", "search", "cells", "get", "round", "pass"}

// workloadBreakdown names the workload-specific figures a traced run
// reports from its untraced window; workloads that do not run the operation
// report 0.
var workloadBreakdown = []string{
	"query_per_s", "query_p99_ms", "khop_p50_ms", "search_p50_ms", "cells_p50_ms",
	"pagerank_iter_ms", "bfs_ms", "ingest_cells_per_s",
}

// setupPhases reports where set-up time went: generation, load and warm-up
// as medians over the run's set-ups, and the partition-view build time of
// the last one.
func setupPhases(viewBuildMs float64, genMs, flushMs, warmMs []float64) []layerMetric {
	n := fmt.Sprintf("median of %d set-ups", len(genMs))
	return []layerMetric{
		{"view.build_ms", "ms", viewBuildMs, "all view builds of the last set-up"},
		{"graph.gen_ms", "ms", median(genMs), n},
		{"graph.flush_ms", "ms", median(flushMs), n},
		{"graph.warm_ms", "ms", median(warmMs), n},
	}
}

// commonTraceMetrics derives the tracing overhead (traced minus untraced
// median operation latency, as a share of the untraced one), the part of
// each request type no layer span covers, and the repeatability of the
// registry counts.
func commonTraceMetrics(tr *tracer, untraced, traced latencies, setup []layerMetric, exact, varying []string) []layerMetric {
	u := quantile(untraced.sorted(), 0.5)
	t := quantile(traced.sorted(), 0.5)
	out := []layerMetric{{"trace.overhead_pct", "%", 100 * ratio(t-u, u),
		fmt.Sprintf("op p50 traced %.4fms vs untraced %.4fms", ms(t), ms(u))}}
	spans := tr.summarize()
	for _, name := range rootNames {
		s := spans["op."+name]
		v, base := 0.0, "no such requests"
		if s != nil {
			v = 100 * ratio(s.self, s.total)
			base = fmt.Sprintf("of %.3fms over %d requests", ms(s.total), s.count)
		}
		out = append(out, layerMetric{"trace.uncovered_" + name + "_pct", "%", v, base})
	}
	out = append(out, setup...)
	return append(out,
		layerMetric{"repeat.exact_counters", "count", float64(len(exact)), "registry counts identical across two runs of the same work"},
		layerMetric{"repeat.varying_counters", "count", float64(len(varying)), "registry counts that differed"},
	)
}

// repeatReport lists which counts repeated exactly.
func repeatReport(exact, varying []string) []string {
	return []string{
		"counts identical across two runs of the same work: " + strings.Join(exact, " "),
		"counts that differed: " + strings.Join(varying, " "),
	}
}

// fillLayers adds a 0 for every per-layer metric a workload did not
// produce, so each traced run reports the full set: the idle layers of a
// workload read 0.
func fillLayers(ms []layerMetric) []layerMetric {
	have := map[string]bool{}
	for _, m := range ms {
		have[m.name] = true
	}
	for _, name := range workloadBreakdown {
		if !have[name] {
			ms = append(ms, layerMetric{name, breakdownUnit(name), 0, "not run by this workload"})
		}
	}
	for _, name := range []string{"view.build_ms", "graph.gen_ms", "graph.flush_ms", "graph.warm_ms"} {
		if !have[name] {
			ms = append(ms, layerMetric{name, "ms", 0, "no graph in this workload"})
		}
	}
	return ms
}

func breakdownUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	default:
		return "ms"
	}
}
