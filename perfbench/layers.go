package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"trinity/internal/obs"
)

// regSnap is an obs snapshot with the per-machine series folded together:
// "memcloud.m3.retries" and "memcloud.m5.retries" both add into
// "memcloud.retries". A histogram contributes "<name>.count" and
// "<name>.sum".
type regSnap struct {
	v     map[string]float64
	gauge map[string]bool
}

var machineElem = regexp.MustCompile(`\.m[0-9]+(\.|$)`)

func fold(name string) string {
	for {
		out := machineElem.ReplaceAllString(name, "$1")
		if out == name {
			return strings.TrimSuffix(out, ".")
		}
		name = out
	}
}

// snapshot reads the given registries. The cloud's registry holds every
// storage, messaging and engine series; obs.Default holds the process-wide
// buffer pool.
func snapshot(regs ...*obs.Registry) regSnap {
	s := regSnap{v: map[string]float64{}, gauge: map[string]bool{}}
	for _, r := range append(regs, obs.Default()) {
		for _, val := range r.Snapshot() {
			name := fold(val.Name)
			switch {
			case val.Kind == "histogram":
				s.v[name+".count"] += float64(val.Hist.Count)
				s.v[name+".sum"] += float64(val.Hist.Sum)
			case val.IsFloat:
				s.v[name] += val.Float
			default:
				s.v[name] += float64(val.Int)
			}
			if val.Kind == "gauge" {
				s.gauge[name] = true
			}
		}
	}
	return s
}

// delta is after − before for every series.
func delta(before, after regSnap) regSnap {
	d := regSnap{v: map[string]float64{}, gauge: after.gauge}
	for k, v := range after.v {
		d.v[k] = v - before.v[k]
	}
	return d
}

// get returns one folded series (0 when absent).
func (s regSnap) get(name string) float64 { return s.v[name] }

// repeatability compares two deltas of identical work and splits the
// non-zero counters into those that repeated exactly and those that did
// not. Gauges and time sums (*_ns.sum) are left out: they are not counts.
func repeatability(a, b regSnap) (exact, varying []string) {
	for k, va := range a.v {
		if a.gauge[k] || strings.HasSuffix(k, "_ns.sum") || strings.HasPrefix(k, "buf.") {
			continue
		}
		vb := b.v[k]
		if va == 0 && vb == 0 {
			continue
		}
		if va == vb {
			exact = append(exact, k)
		} else {
			varying = append(varying, fmt.Sprintf("%s(%g→%g)", k, va, vb))
		}
	}
	sort.Strings(exact)
	sort.Strings(varying)
	return exact, varying
}

// layerMetric is one per-layer figure with the base it was divided by.
type layerMetric struct {
	name  string
	unit  string
	value float64
	base  string
}

// layerInput is what the per-layer derivation needs from one traced
// window.
type layerInput struct {
	d         regSnap               // registry delta over the traced window
	after     regSnap               // registry state at the window's end
	ops       float64               // workload operations in the window
	opName    string                // what one operation is
	cells     float64               // cells written in the window
	userBytes float64               // value bytes written in the window
	spans     map[string]*spanStats // benchmark-side spans of the window
	extra     []layerMetric         // workload-specific figures and probes
}

// spanMean returns the mean duration of the named spans, in ns, and how
// many there were.
func spanMean(spans map[string]*spanStats, names ...string) (float64, int) {
	var total float64
	var n int
	for _, name := range names {
		if s := spans[name]; s != nil {
			total += s.total
			n += s.count
		}
	}
	return ratio(total, float64(n)), n
}

// histMean returns sum/count of a folded histogram delta and its count.
func histMean(d regSnap, name string) (float64, float64) {
	c := d.get(name + ".count")
	return ratio(d.get(name+".sum"), c), c
}

// deriveLayers turns one traced window into the per-layer metrics. Every
// metric is produced for every workload; a layer the workload leaves idle
// reads 0, which is itself the prediction to check.
func deriveLayers(in layerInput) []layerMetric {
	d := in.d
	per := func(num string) float64 { return ratio(d.get(num), in.ops) }
	opBase := fmt.Sprintf("per %s, %g in the window", in.opName, in.ops)
	var out []layerMetric
	add := func(name, unit string, v float64, base string) {
		out = append(out, layerMetric{name, unit, v, base})
	}

	exploreNs, explores := spanMean(in.spans, "traversal.explore", "traversal.explore_cells")
	add("traversal.explore_ms", "ms", ms(exploreNs), fmt.Sprintf("mean of %d spans", explores))
	queries := d.get("traversal.queries")
	qBase := fmt.Sprintf("per query, %g traversal queries", queries)
	add("traversal.visited_per_query", "1/query", ratio(d.get("traversal.visited"), queries), qBase)
	add("traversal.expansions_per_query", "1/query", ratio(d.get("traversal.expansions"), queries), qBase)

	add("view.builds_timed", "count", d.get("view.builds"), "view builds inside the timed window")

	waitNs, waits := spanMean(in.spans, "fetch.wait")
	add("fetch.wait_us", "us", us(waitNs), fmt.Sprintf("mean of %d GetAsync→Wait spans", waits))
	fkpb, fb := histMean(d, "fetch.batch_size")
	add("fetch.keys_per_batch", "1/batch", fkpb, fmt.Sprintf("%g shipped batches", fb))
	add("fetch.batches_per_query", "1/op", per("fetch.batches"), opBase)
	fkeys := d.get("fetch.keys")
	add("fetch.coalesce_ratio", "ratio", ratio(d.get("fetch.coalesce_hits"), fkeys), fmt.Sprintf("of %g keys requested", fkeys))
	add("fetch.local_hit_ratio", "ratio", ratio(d.get("fetch.local_hits"), fkeys), fmt.Sprintf("of %g keys requested", fkeys))

	drainNs, drains := spanMean(in.spans, "store.drain")
	add("store.drain_ms", "ms", ms(drainNs), fmt.Sprintf("mean of %d Drain spans", drains))
	skpb, sb := histMean(d, "store.batch_size")
	add("store.keys_per_batch", "1/batch", skpb, fmt.Sprintf("%g shipped batches", sb))
	add("store.retries", "count", d.get("store.retries"), "store re-routes in the window")

	// multiop_ns times MultiView and set_ns the multi-put handler (and the
	// per-key Put no workload issues in a window); a multi-get has no
	// server-side timer of its own.
	mo := d.get("memcloud.multiop_ns.count") + d.get("memcloud.set_ns.count")
	moNs := ratio(d.get("memcloud.multiop_ns.sum")+d.get("memcloud.set_ns.sum"), mo)
	add("memcloud.multiop_us", "us", us(moNs), fmt.Sprintf("%g server-side multi-ops timed by multiop_ns and set_ns", mo))
	mgb := d.get("memcloud.multiget_batches")
	add("memcloud.multiget_keys_per_batch", "1/batch", ratio(d.get("memcloud.multiget_keys"), mgb), fmt.Sprintf("%g multi-get batches", mgb))
	mpb := d.get("memcloud.multiput_batches")
	add("memcloud.multiput_keys_per_batch", "1/batch", ratio(d.get("memcloud.multiput_keys"), mpb), fmt.Sprintf("%g multi-put batches", mpb))
	add("memcloud.remote_ops_per_op", "1/op", per("memcloud.remote_ops"), opBase)

	add("msg.sync_calls_per_op", "1/op", per("msg.sync_calls"), opBase)
	add("msg.frames_per_op", "1/op", per("msg.frames_sent"), opBase)
	add("msg.bytes_per_op", "B/op", per("msg.bytes_sent"), opBase)
	frames := d.get("msg.frames_sent")
	add("msg.messages_per_frame", "1/frame", ratio(d.get("msg.messages_sent"), frames), fmt.Sprintf("%g frames", frames))
	callNs, calls := histMean(d, "msg.call_ns")
	add("msg.call_us", "us", us(callNs), fmt.Sprintf("%g sync calls", calls))

	add("trunk.committed_bytes", "bytes", in.after.get("trunk.committed_bytes"), "all trunks at the window's end")
	add("trunk.gap_bytes", "bytes", in.after.get("trunk.gap_bytes"), "all trunks at the window's end")
	add("trunk.defrag_count", "count", d.get("trunk.defrag_ns.count"), "defragmentation passes in the window")

	add("wal.appends_per_cell", "1/cell", ratio(d.get("wal.group_commits"), in.cells), fmt.Sprintf("%g cells written", in.cells))
	add("wal.bytes_per_user_byte", "ratio", ratio(d.get("wal.bytes_appended"), in.userBytes), fmt.Sprintf("%g value bytes written", in.userBytes))

	hits, misses := d.get("buf.hits"), d.get("buf.misses")
	add("buf.hit_ratio", "ratio", ratio(hits, hits+misses), fmt.Sprintf("of %g lease requests", hits+misses))

	cNs, steps := histMean(d, "bsp.superstep.compute_ns")
	bNs, _ := histMean(d, "bsp.superstep.barrier_ns")
	sNs, _ := histMean(d, "bsp.superstep_ns")
	stepBase := fmt.Sprintf("mean over %g supersteps", steps)
	add("bsp.compute_ms", "ms", ms(cNs), stepBase)
	add("bsp.barrier_ms", "ms", ms(bNs), stepBase)
	add("bsp.superstep_ms", "ms", ms(sNs), stepBase)
	sent := d.get("bsp.messages_sent")
	wire := d.get("bsp.messages_wire")
	add("bsp.wire_per_sent", "ratio", ratio(wire, sent), fmt.Sprintf("of %g logical messages", sent))
	add("bsp.combine_ratio", "ratio", ratio(d.get("bsp.messages_combined"), sent), fmt.Sprintf("merged by the combiner, of %g logical messages", sent))

	return append(out, in.extra...)
}

// sanity lists the counters that must stay 0 in a fault-free run.
var sanityCounters = []string{
	"msg.dropped_frames",
	"msg.deadline_dropped_rx",
	"memcloud.retries",
	"cluster.recoveries",
	"msg.tcp.oversize_frames",
}

// sanityCheck reports the fault counters over a whole run and whether the
// buffer pool's in-use count came back to its value before the run.
func sanityCheck(d regSnap, inuseDelta float64) (metrics []layerMetric, suspect bool) {
	for _, name := range sanityCounters {
		v := d.get(name)
		metrics = append(metrics, layerMetric{name, "count", v, "whole run, must be 0"})
		if v != 0 {
			suspect = true
		}
	}
	metrics = append(metrics, layerMetric{"buf.inuse_delta", "count", inuseDelta, "leases held after Close minus before the run"})
	if inuseDelta != 0 {
		suspect = true
	}
	s := 0.0
	if suspect {
		s = 1
	}
	return append(metrics, layerMetric{"sanity.suspect", "count", s, "1 when a fault counter is non-zero"}), suspect
}
