package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// ingest sizing. Each cycle boots a fresh cloud on TCP loopback, writes
// every key twice and checks the result; a window repeats cycles until its
// write time adds up to --seconds.
const (
	ingestKeys = 50000
	pass1Size  = 120
	pass2Size  = 200
	// ingestTrunkCap is the per-trunk buffer: the ~1560 keys of one trunk
	// fit once at each size, but not both at once, so pass 2 must
	// relocate cells and defragment to reclaim pass 1's space.
	ingestTrunkCap = 448 << 10
	// maxOutstanding bounds the writer's unacknowledged writes, as a client
	// with a bounded buffer would; it is deep enough for full 512-key
	// batches to every machine.
	maxOutstanding = 8192
)

// Phases of one cycle as the reader sees them.
const (
	phaseIdle = iota
	phasePass1
	phasePass2 // pass 1 drained: every key exists
	phaseDone  // pass 2 drained: every key holds its pass-2 value
)

// ingestValue is a self-describing cell value: key, version, a payload
// derived from both, and an FNV-64a checksum of everything before it.
func ingestValue(key uint64, version uint32) []byte {
	size := pass1Size
	if version == 2 {
		size = pass2Size
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint32(v[8:], version)
	x := hash.Mix64(key ^ uint64(version)<<56)
	for i := 12; i < size-8; i++ {
		x = hash.Mix64(x + uint64(i))
		v[i] = byte(x)
	}
	h := fnv.New64a()
	h.Write(v[:size-8])
	binary.LittleEndian.PutUint64(v[size-8:], h.Sum64())
	return v
}

// checkValue verifies a value read for key and returns its version.
func checkValue(key uint64, v []byte) (uint32, error) {
	if len(v) < 20 {
		return 0, fmt.Errorf("key %d: %d-byte value", key, len(v))
	}
	version := binary.LittleEndian.Uint32(v[8:])
	want := pass1Size
	if version == 2 {
		want = pass2Size
	}
	h := fnv.New64a()
	h.Write(v[:len(v)-8])
	switch {
	case binary.LittleEndian.Uint64(v) != key:
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, binary.LittleEndian.Uint64(v))
	case version != 1 && version != 2:
		return 0, fmt.Errorf("key %d: version %d was never written", key, version)
	case len(v) != want:
		return 0, fmt.Errorf("key %d: version %d is %d bytes, want %d", key, version, len(v), want)
	case binary.LittleEndian.Uint64(v[len(v)-8:]) != h.Sum64():
		return 0, fmt.Errorf("key %d: checksum mismatch", key)
	}
	return version, nil
}

// checkRead judges a read beside the writer: it must return a version
// written for the key, or not-found while the key may not exist yet.
func checkRead(key uint64, v []byte, err error, phaseBefore, phaseAfter int32) error {
	if errors.Is(err, memcloud.ErrNotFound) {
		if phaseBefore <= phasePass1 {
			return nil
		}
		return fmt.Errorf("key %d: not found after pass 1 drained", key)
	}
	if err != nil {
		return fmt.Errorf("key %d: %w", key, err)
	}
	version, err := checkValue(key, v)
	switch {
	case err != nil:
		return err
	case phaseAfter <= phasePass1 && version != 1:
		return fmt.Errorf("key %d: version %d read during pass 1", key, version)
	case phaseBefore == phaseDone && version != 2:
		return fmt.Errorf("key %d: version %d read after pass 2 drained", key, version)
	}
	return nil
}

func selfTestIngest() error {
	const key = 42
	v1, v2 := ingestValue(key, 1), ingestValue(key, 2)
	if err := checkRead(key, v2, nil, phasePass2, phasePass2); err != nil {
		return fmt.Errorf("checker rejected a correct read: %v", err)
	}
	if err := checkRead(key, nil, memcloud.ErrNotFound, phasePass1, phasePass1); err != nil {
		return fmt.Errorf("checker rejected not-found during pass 1: %v", err)
	}
	flipped := append([]byte(nil), v2...)
	flipped[30] ^= 1
	bad := []struct {
		what string
		err  error
	}{
		{"a flipped payload bit", checkRead(key, flipped, nil, phasePass2, phasePass2)},
		{"another key's value", checkRead(key+1, v1, nil, phasePass1, phasePass1)},
		{"a stale version after the final drain", checkRead(key, v1, nil, phaseDone, phaseDone)},
		{"a version 2 value during pass 1", checkRead(key, v2, nil, phasePass1, phasePass1)},
		{"not-found after pass 1 drained", checkRead(key, nil, memcloud.ErrNotFound, phasePass2, phasePass2)},
		{"a truncated value", checkRead(key, v2[:pass1Size], nil, phasePass2, phasePass2)},
	}
	for _, b := range bad {
		if b.err == nil {
			return fmt.Errorf("checker accepted %s", b.what)
		}
	}
	return nil
}

// ingestInputs are generated once per run: distinct keys and both
// versions of every value.
type ingestInputs struct {
	keys   []uint64
	v1, v2 [][]byte
	remote []uint64 // keys not owned by machine 1, the reader's machine
}

func newIngestInputs(seed uint64) *ingestInputs {
	in := &ingestInputs{}
	seen := make(map[uint64]bool, ingestKeys)
	for i := uint64(0); len(in.keys) < ingestKeys; i++ {
		k := hash.Mix64(seed<<32 ^ i)
		if !seen[k] {
			seen[k] = true
			in.keys = append(in.keys, k)
		}
	}
	for _, k := range in.keys {
		in.v1 = append(in.v1, ingestValue(k, 1))
		in.v2 = append(in.v2, ingestValue(k, 2))
	}
	return in
}

// tcpCloud boots an 8-machine cloud with buffered logging whose bus
// endpoints are all swapped for TCP transports on loopback, with every
// connection dialed up front.
func tcpCloud(ctx context.Context, reg *obs.Registry) (*memcloud.Cloud, error) {
	tcps := make([]*msg.TCPTransport, machines)
	for i := range tcps {
		t, err := msg.NewTCPTransportOpts(msg.MachineID(i), "127.0.0.1:0", msg.TCPOptions{Metrics: reg})
		if err != nil {
			for _, prev := range tcps[:i] {
				prev.Close()
			}
			return nil, err
		}
		tcps[i] = t
	}
	for i, t := range tcps {
		for j, peer := range tcps {
			if i != j {
				t.AddPeer(msg.MachineID(j), peer.Addr())
			}
		}
	}
	cloud := memcloud.New(memcloud.Config{
		Machines:        machines,
		BufferedLogging: true,
		TrunkCapacity:   ingestTrunkCap,
		Metrics:         reg,
		TransportWrap: func(bus msg.Transport) msg.Transport {
			bus.Close()
			return tcps[bus.Local()]
		},
	})
	installEcho(cloud)
	for i := 0; i < machines; i++ {
		for j := 0; j < machines; j++ {
			if i == j {
				continue
			}
			if _, err := cloud.Slave(i).Node().Call(ctx, msg.MachineID(j), protoEcho, nil); err != nil {
				cloud.Close()
				return nil, fmt.Errorf("dial machine %d from %d: %w", j, i, err)
			}
		}
	}
	return cloud, nil
}

// ingWindow accumulates the cycles of one window.
type ingWindow struct {
	setups, mem       []float64
	acks, gets        series
	writeTime         time.Duration
	cells, userBytes  float64
	attempted, failed int64
	cycles            int
	cycleDeltas       []regSnap // registry deltas of the first two cycles
	cycleRates        []float64 // acknowledged writes per second, per cycle
}

// writePass streams one version of every key through the writer, with at
// most maxOutstanding unacknowledged, then drains. An ack's latency runs
// from PutAsync to when the writer sees the future resolved.
func writePass(ctx context.Context, wr *store.Writer, keys []uint64, vals [][]byte, rec *recorder, w *ingWindow, acks *series, clock func() time.Duration) {
	type inflight struct {
		t time.Time
		f *store.Future
	}
	q := make([]inflight, 0, maxOutstanding+1)
	head := 0
	retire := func(block bool) bool {
		it := q[head]
		if !block {
			select {
			case <-it.f.Done():
			default:
				return false
			}
		}
		err := it.f.Wait(ctx)
		*acks = append(*acks, sample{at: clock(), lat: time.Since(it.t)})
		w.attempted++
		if err != nil {
			noteFailure(&w.failed, fmt.Errorf("write: %w", err))
		}
		head++
		return true
	}
	root := rec.root("op.pass")
	sp := rec.child("store.put_async", root)
	for i, k := range keys {
		q = append(q, inflight{time.Now(), wr.PutAsync(k, vals[i])})
		for head < len(q) && retire(false) {
		}
		if len(q)-head >= maxOutstanding {
			retire(true)
		}
		if head > maxOutstanding {
			q = append(q[:0], q[head:]...)
			head = 0
		}
	}
	rec.end(sp)
	sp = rec.child("store.ack_wait", root)
	wr.Flush()
	for head < len(q) {
		retire(true)
	}
	rec.end(sp)
	sp = rec.child("store.drain", root)
	if err := wr.Drain(ctx); err != nil {
		noteFailure(&w.failed, fmt.Errorf("drain: %w", err))
	}
	rec.end(sp)
	rec.end(root)
}

// cycle boots a cloud, runs both passes beside the reader, verifies every
// key and closes the cloud.
func cycle(ctx context.Context, reg *obs.Registry, in *ingestInputs, seed uint64, tr *tracer, w *ingWindow) error {
	// Collect the previous cycle's cloud now, so its garbage is not
	// billed to this cycle's writes.
	runtime.GC()
	var before regSnap
	if len(w.cycleDeltas) < 2 {
		before = snapshot(reg)
	}
	t0 := time.Now()
	cloud, err := tcpCloud(ctx, reg)
	if err != nil {
		return err
	}
	defer cloud.Close()
	wr := store.New(cloud.Slave(0), store.Options{Metrics: reg})
	defer wr.Close()
	f := fetch.New(cloud.Slave(1), fetch.Options{Metrics: reg})
	defer f.Close()
	w.setups = append(w.setups, time.Since(t0).Seconds())
	if in.remote == nil {
		for _, k := range in.keys {
			if cloud.Slave(1).Owner(k) != 1 {
				in.remote = append(in.remote, k)
			}
		}
	}

	var phase atomic.Int32
	var stop atomic.Bool
	var wg sync.WaitGroup
	var gets series
	// Samples are stamped on the window's clock, which runs only while
	// this window's cycles are writing.
	base := w.writeTime
	var start time.Time
	clock := func() time.Duration { return base + time.Since(start) }
	var readAttempted, readFailed int64
	readRec := tr.recorder()
	start = time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := hash.NewRNG(seed*104729 + uint64(w.cycles))
		next := time.Now()
		for !stop.Load() && ctx.Err() == nil {
			next = next.Add(readPeriod)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			key := in.remote[rng.Intn(len(in.remote))]
			pb := phase.Load()
			root := readRec.root("op.get")
			sp := readRec.child("fetch.wait", root)
			t := time.Now()
			fu := f.GetAsync(key)
			f.Flush()
			v, err := fu.Wait(ctx)
			gets = append(gets, sample{at: clock(), lat: time.Since(t)})
			readRec.end(sp)
			readRec.end(root)
			readAttempted++
			if err := checkRead(key, v, err, pb, phase.Load()); err != nil {
				noteFailure(&readFailed, fmt.Errorf("read: %w", err))
			}
		}
	}()

	rec := tr.recorder()
	// Sized up front: growing a multi-megabyte slice inside the timed
	// passes would bill the benchmark's own copying to the writes.
	acks := make(series, 0, 2*len(in.keys))
	phase.Store(phasePass1)
	writePass(ctx, wr, in.keys, in.v1, rec, w, &acks, clock)
	phase.Store(phasePass2)
	writePass(ctx, wr, in.keys, in.v2, rec, w, &acks, clock)
	phase.Store(phaseDone)
	w.writeTime += time.Since(start)
	w.cycleRates = append(w.cycleRates, float64(2*len(in.keys))/time.Since(start).Seconds())
	stop.Store(true)
	wg.Wait()
	w.gets = append(w.gets, gets...)
	w.acks = append(w.acks, acks...)
	w.attempted += readAttempted
	w.failed += readFailed
	w.cells += float64(2 * len(in.keys))
	w.userBytes += float64(len(in.keys) * (pass1Size + pass2Size))

	// Every key must now hold its pass-2 value.
	f.GetBatch(ctx, in.keys, func(i int, key uint64, v []byte, err error) {
		if err == nil {
			var version uint32
			if version, err = checkValue(key, v); err == nil && version != 2 {
				err = fmt.Errorf("key %d: version %d after the final drain", key, version)
			}
		}
		if err != nil {
			noteFailure(&w.failed, err)
		}
	})
	w.mem = append(w.mem, float64(cloud.MemoryUsage()))
	w.cycles++
	if before.v != nil {
		w.cycleDeltas = append(w.cycleDeltas, delta(before, snapshot(reg)))
	}
	return nil
}

func (in *ingestInputs) window(ctx context.Context, reg *obs.Registry, seed uint64, dur time.Duration, tr *tracer) (*ingWindow, error) {
	w := &ingWindow{}
	for w.writeTime < dur && ctx.Err() == nil {
		if err := cycle(ctx, reg, in, seed, tr, w); err != nil {
			return nil, err
		}
	}
	return w, ctx.Err()
}

func runIngest(ctx context.Context, cfg config) (*outcome, error) {
	in := newIngestInputs(cfg.seed)
	reg := obs.NewRegistry()

	runStart := snapshot(reg)
	out := &outcome{}
	dur := time.Duration(cfg.seconds) * time.Second
	w, err := in.window(ctx, reg, cfg.seed, dur, newTracer(false))
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = w.attempted, w.failed
	out.e2e = e2eMetrics(w.setups, median(w.mem), w.writeTime, w.acks, w.gets)
	out.report = append(out.report, fmt.Sprintf("%d cycles of %d keys × 2 passes over TCP loopback", w.cycles, ingestKeys),
		fmt.Sprintf("writes/s by cycle: %.0f", w.cycleRates),
		"latency (untraced window):", tailLine("ack", w.acks.lats()), tailLine("get", w.gets.lats()))

	if cfg.trace {
		tr := newTracer(true)
		before := snapshot(reg)
		tw, err := in.window(ctx, reg, cfg.seed, dur, tr)
		if err != nil {
			return nil, err
		}
		after := snapshot(reg)
		out.attempted += tw.attempted
		out.failed += tw.failed

		probes, err := in.probeCloud(ctx, reg)
		if err != nil {
			return nil, err
		}
		var exact, varying []string
		if len(tw.cycleDeltas) == 2 {
			exact, varying = repeatability(tw.cycleDeltas[0], tw.cycleDeltas[1])
		}
		extra := []layerMetric{{"ingest_cells_per_s", "1/s", w.cells / w.writeTime.Seconds(),
			fmt.Sprintf("%g acknowledged writes in %.2fs", w.cells, w.writeTime.Seconds())}}
		extra = append(extra, probes...)
		extra = append(extra, commonTraceMetrics(tr, w.acks.lats(), tw.acks.lats(), nil, exact, varying)...)
		out.layers = deriveLayers(layerInput{
			d: delta(before, after), after: after, ops: tw.cells, opName: "write",
			cells: tw.cells, userBytes: tw.userBytes, spans: tr.summarize(), extra: extra,
		})
		out.report = append(out.report, repeatReport(exact, varying)...)
		out.tracer = tr
	}
	out.sanity = delta(runStart, snapshot(reg))
	return out, nil
}

// probeCloud loads pass 1 into one more TCP cloud, outside any window, and
// runs the layer probes on it.
func (in *ingestInputs) probeCloud(ctx context.Context, reg *obs.Registry) ([]layerMetric, error) {
	cloud, err := tcpCloud(ctx, reg)
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	wr := store.New(cloud.Slave(0), store.Options{Metrics: reg})
	defer wr.Close()
	for i, k := range in.keys {
		wr.PutAsync(k, in.v1[i])
	}
	if err := wr.Drain(ctx); err != nil {
		return nil, fmt.Errorf("probe load: %w", err)
	}
	return probeLayers(ctx, cloud, in.keys[:500], in.v2[0], "TCP loopback")
}
