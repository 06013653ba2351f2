package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"trinity/internal/compute/traversal"
	"trinity/internal/gen"
	"trinity/internal/graph"
	"trinity/internal/graph/view"
	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/obs"
)

// people-search sizing. The graph is small enough that a 3-hop query costs
// a few milliseconds, so one window holds over a thousand of each query
// type.
const (
	socialPeople = 20000
	socialDegree = 13
	psSetups     = 5
)

// Query types of the people-search mix.
const (
	opKHop   = iota // 3-hop KHopNeighborhoodSize: server-side Explore over CSR views
	opSearch        // 2-hop PeopleSearch("David"): Explore with a label predicate
	opCells         // 2-hop ExploreCells with a name-prefix predicate: client-side fetch pipeline
	opGet           // graph.Machine.GetNode from a machine that does not own the node
	numOps
)

var opNames = [numOps]string{"khop", "search", "cells", "get"}

// opWeights sets the query mix so that the mix's median falls inside the
// 2-hop searches and its 90th percentile where 2-hop cells and 3-hop
// queries overlap, never in a gap between two types' bands, where a
// quantile would jump between runs. Gets are not dealt: a reader of their
// own issues them beside the queries.
var opWeights = [numOps]int{1, 3, 1, 0}

var (
	davidLabel  = int64(hash.String("David"))
	cellsPrefix = "David "
)

// socialOracle is the independent model of the loaded graph: nodes carry
// gen.FirstNameOf/NameOf, and the edges come from the same gen.PowerLaw
// stream gen.BuildSocial feeds the builder (AvgDegree/2 undirected edges
// per person, γ = 2.16).
type socialOracle struct {
	adj *adjacency
}

func newSocialOracle(seed uint64) *socialOracle {
	o := &socialOracle{adj: newAdjacency(socialPeople, false)}
	gen.PowerLaw(gen.PowerLawConfig{
		Nodes: socialPeople, AvgDegree: socialDegree / 2, Gamma: 2.16, Seed: seed,
	}, o.adj.addEdge)
	return o
}

func (o *socialOracle) label(id uint64) int64 { return int64(hash.String(gen.FirstNameOf(id))) }

// psOp is one query with its result.
type psOp struct {
	kind    int
	start   uint64
	via     int
	visited int
	matches []uint64
	node    *graph.Node
	err     error
	lat     time.Duration
	at      time.Duration // completion, from the window's start
}

// check compares one query's result with the oracle.
func (o *socialOracle) check(op *psOp) error {
	if op.err != nil {
		return op.err
	}
	switch op.kind {
	case opKHop:
		if want := len(o.adj.ball(op.start, 3)); op.visited != want {
			return fmt.Errorf("3-hop from %d visited %d, want %d", op.start, op.visited, want)
		}
	case opSearch:
		var want []uint32
		for _, v := range o.adj.ball(op.start, 2) {
			if o.label(uint64(v)) == davidLabel {
				want = append(want, v)
			}
		}
		if !sameSet(op.matches, want) {
			return fmt.Errorf("search from %d found %d Davids, want %d", op.start, len(op.matches), len(want))
		}
	case opCells:
		ball := o.adj.ball(op.start, 2)
		var want []uint32
		for _, v := range ball {
			if strings.HasPrefix(gen.NameOf(uint64(v)), cellsPrefix) {
				want = append(want, v)
			}
		}
		if op.visited != len(ball) || !sameSet(op.matches, want) {
			return fmt.Errorf("cells from %d visited %d matched %d, want %d and %d",
				op.start, op.visited, len(op.matches), len(ball), len(want))
		}
	case opGet:
		n := op.node
		if n == nil || n.ID != op.start || n.Label != o.label(op.start) || n.Name != gen.NameOf(op.start) ||
			!sameList(n.Outlinks, o.adj.out[op.start]) || len(n.Inlinks) != 0 {
			return fmt.Errorf("node %d decoded wrong", op.start)
		}
	}
	return nil
}

// selfTestPeopleSearch feeds the checker one corrupted result of each
// query type and fails unless every one is rejected.
func selfTestPeopleSearch() error {
	o := newSocialOracle(7)
	start := uint64(11)
	good := []psOp{
		{kind: opKHop, start: start, visited: len(o.adj.ball(start, 3))},
		{kind: opGet, start: start, node: &graph.Node{ID: start, Label: o.label(start), Name: gen.NameOf(start),
			Outlinks: toU64(o.adj.out[start])}},
	}
	var davids []uint64
	for _, v := range o.adj.ball(start, 2) {
		if o.label(uint64(v)) == davidLabel {
			davids = append(davids, uint64(v))
		}
	}
	good = append(good, psOp{kind: opSearch, start: start, matches: davids})
	for i := range good {
		if err := o.check(&good[i]); err != nil {
			return fmt.Errorf("checker rejected a correct %s result: %v", opNames[good[i].kind], err)
		}
	}
	bad := []psOp{
		{kind: opKHop, start: start, visited: good[0].visited + 1},
		{kind: opGet, start: start, node: &graph.Node{ID: start, Label: o.label(start), Name: gen.NameOf(start),
			Outlinks: toU64(o.adj.out[start])[1:]}},
		{kind: opSearch, start: start, matches: append(append([]uint64(nil), davids...), davids...)},
		{kind: opCells, start: start, visited: 1},
		{kind: opSearch, start: start, err: errors.New("injected failure")},
	}
	for i := range bad {
		if o.check(&bad[i]) == nil {
			return fmt.Errorf("checker accepted a corrupted %s result", opNames[bad[i].kind])
		}
	}
	return nil
}

func toU64(xs []uint32) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

// socialCloud is one loaded people-search cloud.
type socialCloud struct {
	reg   *obs.Registry
	cloud *memcloud.Cloud
	g     *graph.Graph
	eng   *traversal.Engine
	// set-up phases, ns
	genNs, flushNs, warmNs float64
}

// setupSocial generates the graph with gen.BuildSocial, loads it through
// Builder.Flush, and warms every machine's partition view and fetch
// pipeline.
func setupSocial(ctx context.Context, seed uint64) (*socialCloud, error) {
	sc := &socialCloud{reg: obs.NewRegistry()}
	sc.cloud = memcloud.New(memcloud.Config{Machines: machines, Metrics: sc.reg})
	t0 := time.Now()
	b := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: socialPeople, AvgDegree: socialDegree, Seed: seed}, b)
	t1 := time.Now()
	sc.g = graph.New(sc.cloud, false)
	if err := b.Flush(ctx, sc.g); err != nil {
		sc.cloud.Close()
		return nil, fmt.Errorf("load social graph: %w", err)
	}
	t2 := time.Now()
	sc.eng = traversal.New(sc.g)
	for i := 0; i < machines; i++ {
		if _, err := view.Acquire(sc.g.On(i)); err != nil {
			sc.cloud.Close()
			return nil, fmt.Errorf("warm view on machine %d: %w", i, err)
		}
		sc.g.On(i).Fetcher()
	}
	t3 := time.Now()
	sc.genNs, sc.flushNs, sc.warmNs = float64(t1.Sub(t0)), float64(t2.Sub(t1)), float64(t3.Sub(t2))
	installEcho(sc.cloud)
	return sc, nil
}

// psWindow is the result of one measured window.
type psWindow struct {
	ops    []psOp
	wall   time.Duration
	failed int64
}

// opStream is one client's seeded query stream. Types are dealt from
// shuffled decks holding each type opWeights times, so every stretch of
// the window carries the mix's exact proportions and a slice's cost does
// not swing with how many 3-hop queries it happened to draw.
type opStream struct {
	rng  *hash.RNG
	deck []int
}

func newOpStream(seed uint64) *opStream { return &opStream{rng: hash.NewRNG(seed)} }

func (st *opStream) next() psOp {
	if len(st.deck) == 0 {
		for kind, w := range opWeights {
			for i := 0; i < w; i++ {
				st.deck = append(st.deck, kind)
			}
		}
		for i := len(st.deck) - 1; i > 0; i-- {
			j := st.rng.Intn(i + 1)
			st.deck[i], st.deck[j] = st.deck[j], st.deck[i]
		}
	}
	kind := st.deck[len(st.deck)-1]
	st.deck = st.deck[:len(st.deck)-1]
	return psOp{kind: kind, start: uint64(st.rng.Intn(socialPeople)), via: st.rng.Intn(machines)}
}

// nextGet draws one single-key read of a node from a machine that does
// not own it.
func nextGet(rng *hash.RNG, cloud *memcloud.Cloud) psOp {
	start := uint64(rng.Intn(socialPeople))
	return psOp{kind: opGet, start: start, via: nonOwner(cloud, start, rng.Intn(machines-1))}
}

// do runs one query or get and times it. The root span is the request; its
// child is the call into the layer that serves it.
func (sc *socialCloud) do(ctx context.Context, op *psOp, rec *recorder) {
	root := rec.root("op." + opNames[op.kind])
	t0 := time.Now()
	switch op.kind {
	case opKHop:
		sp := rec.child("traversal.explore", root)
		op.visited, op.err = sc.eng.KHopNeighborhoodSize(ctx, op.via, op.start, 3)
		rec.end(sp)
	case opSearch:
		sp := rec.child("traversal.explore", root)
		op.matches, op.err = sc.eng.PeopleSearch(ctx, op.via, op.start, davidLabel, 2)
		rec.end(sp)
	case opCells:
		sp := rec.child("traversal.explore_cells", root)
		var res *traversal.Result
		res, op.err = sc.eng.ExploreCells(ctx, op.via, op.start, 2,
			traversal.Predicate{Mode: traversal.MatchNamePrefix, Prefix: cellsPrefix})
		rec.end(sp)
		if res != nil {
			op.visited, op.matches = res.Visited, res.Matches
		}
	case opGet:
		sp := rec.child("graph.get_node", root)
		op.node, op.err = sc.g.On(op.via).GetNode(ctx, op.start)
		rec.end(sp)
	}
	op.lat = time.Since(t0)
	rec.end(root)
}

// window runs two clients until dur has passed: a closed loop issuing
// each query as soon as the previous one returns, and beside it a reader
// issuing one get every readPeriod. Every result is checked against the
// oracle after the window closes.
func (sc *socialCloud) window(ctx context.Context, seed uint64, dur time.Duration, tr *tracer, o *socialOracle) *psWindow {
	var queries, gets []psOp
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	getRec := tr.recorder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := hash.NewRNG(seed*7919 + 5)
		next := time.Now()
		for time.Now().Before(deadline) && ctx.Err() == nil {
			next = next.Add(readPeriod)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			op := nextGet(rng, sc.cloud)
			sc.do(ctx, &op, getRec)
			op.at = time.Since(start)
			gets = append(gets, op)
		}
	}()
	rec := tr.recorder()
	ops := newOpStream(seed*1000003 + 1)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		op := ops.next()
		sc.do(ctx, &op, rec)
		op.at = time.Since(start)
		queries = append(queries, op)
	}
	wg.Wait()
	w := &psWindow{wall: time.Since(start), ops: append(queries, gets...)}
	for i := range w.ops {
		if err := o.check(&w.ops[i]); err != nil {
			noteFailure(&w.failed, err)
		}
	}
	return w
}

// series splits the window's samples by type; all holds the queries, not
// the gets.
func (w *psWindow) series() (all series, byType [numOps]series) {
	for _, op := range w.ops {
		s := sample{at: op.at, lat: op.lat}
		if op.kind != opGet {
			all = append(all, s)
		}
		byType[op.kind] = append(byType[op.kind], s)
	}
	return all, byType
}

// breakdown reports the per-type figures the paper's people-search table
// is built from.
func (w *psWindow) breakdown() []layerMetric {
	all, byType := w.series()
	a := all.lats().sorted()
	p50 := func(k int) float64 { return ms(quantile(byType[k].lats().sorted(), 0.5)) }
	return []layerMetric{
		{"query_per_s", "1/s", float64(len(a)) / w.wall.Seconds(), fmt.Sprintf("%d queries", len(a))},
		{"query_p99_ms", "ms", ms(quantile(a, 0.99)), fmt.Sprintf("%d samples", len(a))},
		{"khop_p50_ms", "ms", p50(opKHop), fmt.Sprintf("%d samples", len(byType[opKHop]))},
		{"search_p50_ms", "ms", p50(opSearch), fmt.Sprintf("%d samples", len(byType[opSearch]))},
		{"cells_p50_ms", "ms", p50(opCells), fmt.Sprintf("%d samples", len(byType[opCells]))},
	}
}

func runPeopleSearch(ctx context.Context, cfg config) (*outcome, error) {
	o := newSocialOracle(cfg.seed)
	var setups []float64
	var genMs, flushMs, warmMs []float64
	var sc *socialCloud
	for i := 0; i < psSetups; i++ {
		if sc != nil {
			sc.cloud.Close()
		}
		t0 := time.Now()
		var err error
		if sc, err = setupSocial(ctx, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		genMs = append(genMs, ms(sc.genNs))
		flushMs = append(flushMs, ms(sc.flushNs))
		warmMs = append(warmMs, ms(sc.warmNs))
	}
	defer sc.cloud.Close()
	runtime.GC() // the discarded set-ups' clouds are not the window's cost
	runStart := snapshot(sc.reg)
	viewBuildMs := ms(runStart.get("view.build_ns.sum"))

	out := &outcome{}
	dur := time.Duration(cfg.seconds) * time.Second
	w := sc.window(ctx, cfg.seed, dur, newTracer(false), o)
	all, byType := w.series()
	out.attempted, out.failed = int64(len(w.ops)), w.failed
	out.e2e = e2eMetrics(setups, float64(sc.cloud.MemoryUsage()), w.wall, all, byType[opGet])
	out.report = append(out.report, fmt.Sprintf("queries/s by slice: %.1f", sliceRates(all, w.wall)),
		"latency by query type (untraced window):", tailLine("all", all.lats()))
	for k := 0; k < numOps; k++ {
		out.report = append(out.report, tailLine(opNames[k], byType[k].lats()))
	}

	if cfg.trace {
		runtime.GC()
		tr := newTracer(true)
		before := snapshot(sc.reg)
		tw := sc.window(ctx, cfg.seed, dur, tr, o)
		after := snapshot(sc.reg)
		out.attempted += int64(len(tw.ops))
		out.failed += tw.failed
		tall, _ := tw.series()

		// fetch.wait: the GetAsync→Wait span of the read behind GetNode,
		// probed on the same non-owner reads outside the window.
		probeRec := tr.recorder()
		rng := hash.NewRNG(cfg.seed ^ 0xfe7c)
		for i := 0; i < 2000; i++ {
			key := uint64(rng.Intn(socialPeople))
			f := sc.g.On(nonOwner(sc.cloud, key, rng.Intn(machines-1))).Fetcher()
			root := probeRec.root("probe.fetch")
			sp := probeRec.child("fetch.wait", root)
			fu := f.GetAsync(key)
			f.Flush()
			_, err := fu.Wait(ctx)
			probeRec.end(sp)
			probeRec.end(root)
			if err != nil {
				return nil, fmt.Errorf("fetch probe of node %d: %w", key, err)
			}
		}
		keys := make([]uint64, 500)
		for i := range keys {
			keys[i] = uint64(rng.Intn(socialPeople))
		}
		probes, err := probeLayers(ctx, sc.cloud, keys, make([]byte, 120), "the in-process bus")
		if err != nil {
			return nil, err
		}
		exact, varying, err := sc.repeatFixed(ctx, cfg.seed, o)
		if err != nil {
			return nil, err
		}
		extra := append(w.breakdown(), probes...)
		extra = append(extra, commonTraceMetrics(tr, all.lats(), tall.lats(), setupPhases(viewBuildMs, genMs, flushMs, warmMs), exact, varying)...)
		out.layers = deriveLayers(layerInput{
			d: delta(before, after), after: after, ops: float64(len(tw.ops)), opName: "query or get",
			spans: tr.summarize(), extra: extra,
		})
		out.report = append(out.report, repeatReport(exact, varying)...)
		out.tracer = tr
	}
	out.sanity = delta(runStart, snapshot(sc.reg))
	return out, nil
}

// repeatFixed runs one fixed list of 40 queries and 20 gets twice, one at a
// time, and reports which registry counts came out identical both times.
func (sc *socialCloud) repeatFixed(ctx context.Context, seed uint64, o *socialOracle) (exact, varying []string, err error) {
	var deltas [2]regSnap
	rec := newTracer(false).recorder()
	for pass := 0; pass < 2; pass++ {
		ops := newOpStream(seed ^ 0x5eed)
		rng := hash.NewRNG(seed ^ 0x5eed)
		before := snapshot(sc.reg)
		for i := 0; i < 60; i++ {
			op := ops.next()
			if i%3 == 2 {
				op = nextGet(rng, sc.cloud)
			}
			sc.do(ctx, &op, rec)
			if err := o.check(&op); err != nil {
				return nil, nil, fmt.Errorf("fixed query %d: %w", i, err)
			}
		}
		deltas[pass] = delta(before, snapshot(sc.reg))
	}
	exact, varying = repeatability(deltas[0], deltas[1])
	return exact, varying, nil
}
