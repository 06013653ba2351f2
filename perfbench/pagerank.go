package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trinity/internal/algo"
	"trinity/internal/gen"
	"trinity/internal/graph"
	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/obs"
)

// pagerank sizing: an R-MAT graph small enough that one PageRank-plus-BFS
// round takes on the order of 100ms on two cores, so a 20 s window holds
// well over a hundred rounds.
const (
	rmatScale    = 13
	rmatDegree   = 13
	prIters      = 10
	hubThreshold = 8
	prSetups     = 5
)

func rmatConfig(seed uint64) gen.RMATConfig {
	return gen.RMATConfig{Scale: rmatScale, AvgDegree: rmatDegree, Seed: seed}
}

// rmatOracle holds the directed graph rebuilt from the generator's edge
// stream, its PageRank after prIters rounds and its BFS levels from node 0.
type rmatOracle struct {
	adj    *adjacency
	ranks  []float64
	levels []int32
}

func newRMATOracle(seed uint64) *rmatOracle {
	o := &rmatOracle{adj: newAdjacency(1<<rmatScale, true)}
	gen.RMAT(rmatConfig(seed), o.adj.addEdge)
	o.ranks = o.adj.pageRank(prIters)
	o.levels = o.adj.bfsLevels(0)
	return o
}

// checkNode compares a decoded R-MAT node (no label, no name) with the
// oracle's out- and in-lists, order included.
func (o *rmatOracle) checkNode(id uint64, n *graph.Node, err error) error {
	if err != nil {
		return err
	}
	if n == nil || n.ID != id || n.Label != 0 || n.Name != "" ||
		!sameList(n.Outlinks, o.adj.out[id]) || !sameList(n.Inlinks, o.adj.in[id]) {
		return fmt.Errorf("node %d decoded wrong", id)
	}
	return nil
}

func selfTestPageRank() error {
	o := newRMATOracle(7)
	ranks := make(map[uint64]float64, len(o.ranks))
	for v, r := range o.ranks {
		ranks[uint64(v)] = r
	}
	levels := make(map[uint64]float64, len(o.levels))
	for v, l := range o.levels {
		levels[uint64(v)] = float64(l)
	}
	if err := checkRanks(ranks, o.ranks); err != nil {
		return fmt.Errorf("checker rejected the oracle's own ranks: %v", err)
	}
	if err := checkLevels(levels, o.levels); err != nil {
		return fmt.Errorf("checker rejected the oracle's own levels: %v", err)
	}
	ranks[3] *= 1 + 1e-8
	if checkRanks(ranks, o.ranks) == nil {
		return errors.New("checker accepted a rank off by 1e-8")
	}
	for v, l := range o.levels {
		if l > 0 {
			levels[uint64(v)] = float64(l + 1)
			break
		}
	}
	if checkLevels(levels, o.levels) == nil {
		return errors.New("checker accepted a wrong BFS level")
	}
	n := &graph.Node{ID: 5, Outlinks: toU64(o.adj.out[5]), Inlinks: toU64(o.adj.in[5])}
	if err := o.checkNode(5, n, nil); err != nil {
		return fmt.Errorf("checker rejected a correct node: %v", err)
	}
	n.Inlinks = append(n.Inlinks, 1)
	if o.checkNode(5, n, nil) == nil {
		return errors.New("checker accepted a node with an extra in-link")
	}
	return nil
}

type rmatCloud struct {
	reg                    *obs.Registry
	cloud                  *memcloud.Cloud
	g                      *graph.Graph
	genNs, flushNs, warmNs float64
}

// setupRMAT loads the R-MAT graph through Builder.Flush and runs one
// warm-up PageRank, which builds every partition view.
func setupRMAT(ctx context.Context, seed uint64) (*rmatCloud, error) {
	rc := &rmatCloud{reg: obs.NewRegistry()}
	rc.cloud = memcloud.New(memcloud.Config{Machines: machines, Metrics: rc.reg})
	t0 := time.Now()
	b := graph.NewBuilder(true)
	gen.BuildRMAT(rmatConfig(seed), 0, b)
	t1 := time.Now()
	rc.g = graph.New(rc.cloud, true)
	if err := b.Flush(ctx, rc.g); err != nil {
		rc.cloud.Close()
		return nil, fmt.Errorf("load R-MAT graph: %w", err)
	}
	t2 := time.Now()
	if _, err := algo.PageRank(ctx, rc.g, prIters, hubThreshold); err != nil {
		rc.cloud.Close()
		return nil, fmt.Errorf("warm-up PageRank: %w", err)
	}
	t3 := time.Now()
	rc.genNs, rc.flushNs, rc.warmNs = float64(t1.Sub(t0)), float64(t2.Sub(t1)), float64(t3.Sub(t2))
	installEcho(rc.cloud)
	return rc, nil
}

type prWindow struct {
	rounds, gets      series
	pr, bfs           latencies
	start             time.Time
	wall              time.Duration
	attempted, failed int64
}

// round runs one PageRank and one BFS and checks both against the oracle
// after the round's clock has stopped.
func (rc *rmatCloud) round(ctx context.Context, o *rmatOracle, rec *recorder, w *prWindow) {
	root := rec.root("op.round")
	t0 := time.Now()
	sp := rec.child("algo.pagerank", root)
	pr, prErr := algo.PageRank(ctx, rc.g, prIters, hubThreshold)
	rec.end(sp)
	t1 := time.Now()
	sp = rec.child("algo.bfs", root)
	bfs, bfsErr := algo.BFS(ctx, rc.g, 0, hubThreshold)
	rec.end(sp)
	t2 := time.Now()
	rec.end(root)
	w.rounds = append(w.rounds, sample{at: t2.Sub(w.start), lat: t2.Sub(t0)})
	w.pr = append(w.pr, t1.Sub(t0)/prIters)
	w.bfs = append(w.bfs, t2.Sub(t1))
	w.attempted += 2
	if prErr == nil {
		prErr = checkRanks(pr.Ranks, o.ranks)
	}
	if prErr != nil {
		noteFailure(&w.failed, fmt.Errorf("pagerank: %w", prErr))
	}
	if bfsErr == nil {
		bfsErr = checkLevels(bfs.Levels, o.levels)
	}
	if bfsErr != nil {
		noteFailure(&w.failed, fmt.Errorf("bfs: %w", bfsErr))
	}
}

// window repeats rounds until dur has passed while one paced reader does
// single-key GetNode calls of random nodes from machines that do not own
// them.
func (rc *rmatCloud) window(ctx context.Context, seed uint64, dur time.Duration, tr *tracer, o *rmatOracle) *prWindow {
	w := &prWindow{start: time.Now()}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var gets series
	var getAttempted, getFailed int64
	readRec := tr.recorder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := hash.NewRNG(seed*7919 + 3)
		next := time.Now()
		for !stop.Load() && ctx.Err() == nil {
			next = next.Add(readPeriod)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			id := uint64(rng.Intn(1 << rmatScale))
			via := nonOwner(rc.cloud, id, rng.Intn(machines-1))
			root := readRec.root("op.get")
			sp := readRec.child("graph.get_node", root)
			t0 := time.Now()
			n, err := rc.g.On(via).GetNode(ctx, id)
			gets = append(gets, sample{at: time.Since(w.start), lat: time.Since(t0)})
			readRec.end(sp)
			readRec.end(root)
			getAttempted++
			if err := o.checkNode(id, n, err); err != nil {
				noteFailure(&getFailed, fmt.Errorf("get: %w", err))
			}
		}
	}()
	rec := tr.recorder()
	for time.Since(w.start) < dur && ctx.Err() == nil {
		rc.round(ctx, o, rec, w)
	}
	w.wall = time.Since(w.start)
	stop.Store(true)
	wg.Wait()
	w.gets = gets
	w.attempted += getAttempted
	w.failed += getFailed
	return w
}

func (w *prWindow) breakdown() []layerMetric {
	return []layerMetric{
		{"pagerank_iter_ms", "ms", ms(quantile(w.pr.sorted(), 0.5)), fmt.Sprintf("median over %d PageRank runs of run time / %d", len(w.pr), prIters)},
		{"bfs_ms", "ms", ms(quantile(w.bfs.sorted(), 0.5)), fmt.Sprintf("median over %d BFS runs", len(w.bfs))},
	}
}

func runPageRank(ctx context.Context, cfg config) (*outcome, error) {
	o := newRMATOracle(cfg.seed)
	var setups, genMs, flushMs, warmMs []float64
	var rc *rmatCloud
	for i := 0; i < prSetups; i++ {
		if rc != nil {
			rc.cloud.Close()
		}
		t0 := time.Now()
		var err error
		if rc, err = setupRMAT(ctx, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		genMs = append(genMs, ms(rc.genNs))
		flushMs = append(flushMs, ms(rc.flushNs))
		warmMs = append(warmMs, ms(rc.warmNs))
	}
	defer rc.cloud.Close()
	runtime.GC() // the discarded set-ups' clouds are not the window's cost
	runStart := snapshot(rc.reg)
	viewBuildMs := ms(runStart.get("view.build_ns.sum"))

	out := &outcome{}
	dur := time.Duration(cfg.seconds) * time.Second
	w := rc.window(ctx, cfg.seed, dur, newTracer(false), o)
	out.attempted, out.failed = w.attempted, w.failed
	out.e2e = e2eMetrics(setups, float64(rc.cloud.MemoryUsage()), w.wall, w.rounds, w.gets)
	out.report = append(out.report, "latency by job (untraced window):",
		tailLine("round", w.rounds.lats()), tailLine("pr/iter", w.pr), tailLine("bfs", w.bfs), tailLine("get", w.gets.lats()))

	if cfg.trace {
		runtime.GC()
		tr := newTracer(true)
		before := snapshot(rc.reg)
		tw := rc.window(ctx, cfg.seed, dur, tr, o)
		after := snapshot(rc.reg)
		out.attempted += tw.attempted
		out.failed += tw.failed

		keys := make([]uint64, 500)
		rng := hash.NewRNG(cfg.seed ^ 0xfe7c)
		for i := range keys {
			keys[i] = uint64(rng.Intn(1 << rmatScale))
		}
		probes, err := probeLayers(ctx, rc.cloud, keys, make([]byte, 120), "the in-process bus")
		if err != nil {
			return nil, err
		}
		// Two rounds with no reader beside them, to see which counts a
		// round repeats exactly.
		var deltas [2]regSnap
		solo := &prWindow{start: time.Now()}
		for i := range deltas {
			b := snapshot(rc.reg)
			rc.round(ctx, o, newTracer(false).recorder(), solo)
			deltas[i] = delta(b, snapshot(rc.reg))
		}
		out.attempted += solo.attempted
		out.failed += solo.failed
		exact, varying := repeatability(deltas[0], deltas[1])

		extra := append(w.breakdown(), probes...)
		extra = append(extra, commonTraceMetrics(tr, w.rounds.lats(), tw.rounds.lats(), setupPhases(viewBuildMs, genMs, flushMs, warmMs), exact, varying)...)
		out.layers = deriveLayers(layerInput{
			d: delta(before, after), after: after, ops: float64(len(tw.rounds)), opName: "round",
			spans: tr.summarize(), extra: extra,
		})
		out.report = append(out.report, repeatReport(exact, varying)...)
		out.tracer = tr
	}
	out.sanity = delta(runStart, snapshot(rc.reg))
	return out, nil
}
