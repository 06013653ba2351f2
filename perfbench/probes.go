package main

import (
	"context"
	"fmt"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

// protoEcho is the benchmark's own no-op protocol: one Call of it is one
// bare transport hop each way plus server dispatch. It sits in the user
// range, below the cluster's reserved protocols.
const protoEcho msg.ProtocolID = 0x7E01

func installEcho(cloud *memcloud.Cloud) {
	for i := 0; i < cloud.Slaves(); i++ {
		cloud.Slave(i).Node().HandleSync(protoEcho, func(context.Context, msg.MachineID, []byte) ([]byte, error) {
			return nil, nil
		})
	}
}

// probeEcho returns the median round trip of n echo calls from machine 0
// to the others in turn.
func probeEcho(ctx context.Context, cloud *memcloud.Cloud, n int) (float64, error) {
	node := cloud.Slave(0).Node()
	var lat latencies
	for i := 0; i < n; i++ {
		to := msg.MachineID(1 + i%(cloud.Slaves()-1))
		t0 := time.Now()
		if _, err := node.Call(ctx, to, protoEcho, nil); err != nil {
			return 0, fmt.Errorf("echo to machine %d: %w", to, err)
		}
		lat = append(lat, time.Since(t0))
	}
	return quantile(lat.sorted(), 0.5), nil
}

// probeLocalGet returns the mean time of one Slave.LocalGet on the key's
// owner, over reps passes across keys.
func probeLocalGet(cloud *memcloud.Cloud, keys []uint64, reps int) (float64, error) {
	owners := make([]*memcloud.Slave, len(keys))
	for i, k := range keys {
		owners[i] = cloud.Slave(int(cloud.Slave(0).Owner(k)))
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i, k := range keys {
			if _, ok, err := owners[i].LocalGet(k); !ok || err != nil {
				return 0, fmt.Errorf("local get of key %d on its owner: ok=%v err=%v", k, ok, err)
			}
		}
	}
	return float64(time.Since(t0)) / float64(reps*len(keys)), nil
}

// codecProbe times the exported multi-op codecs on one batch. The
// multi-get response comes from a real ProtoMultiGet call, so its decode
// runs on bytes the server produced.
type codecProbe struct {
	getEncodeNs, getDecodeNs, putEncodeNs float64
}

func probeCodecs(ctx context.Context, cloud *memcloud.Cloud, keys []uint64, val []byte, reps int) (codecProbe, error) {
	var p codecProbe
	if len(keys) == 0 {
		return p, fmt.Errorf("codec probe needs keys")
	}
	// One batch of keys owned by a single machine other than 0.
	owner := msg.MachineID(1)
	var batch []uint64
	for _, k := range keys {
		if cloud.Slave(0).Owner(k) == owner {
			batch = append(batch, k)
			if len(batch) == 64 {
				break
			}
		}
	}
	if len(batch) == 0 {
		return p, fmt.Errorf("codec probe: no key owned by machine %d", owner)
	}
	t0 := time.Now()
	var req []byte
	for r := 0; r < reps; r++ {
		req = memcloud.EncodeMultiGetReq(batch)
	}
	p.getEncodeNs = float64(time.Since(t0)) / float64(reps)

	resp, err := cloud.Slave(0).Node().Call(ctx, owner, memcloud.ProtoMultiGet, req)
	if err != nil {
		return p, fmt.Errorf("codec probe multi-get: %w", err)
	}
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		res, err := memcloud.DecodeMultiGetResp(resp, len(batch))
		if err != nil {
			return p, fmt.Errorf("codec probe decode: %w", err)
		}
		if res[0].Status != memcloud.MultiGetOK {
			return p, fmt.Errorf("codec probe: key %d status %d", batch[0], res[0].Status)
		}
	}
	p.getDecodeNs = float64(time.Since(t0)) / float64(reps)

	items := make([]memcloud.MultiPutItem, len(batch))
	for i, k := range batch {
		items[i] = memcloud.MultiPutItem{Op: memcloud.MultiPutOpPut, Key: k, Val: val}
	}
	dst := make([]byte, 0, memcloud.MultiPutReqSize(items))
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		dst = memcloud.AppendMultiPutReq(dst[:0], items)
	}
	p.putEncodeNs = float64(time.Since(t0)) / float64(reps)
	return p, nil
}

// probeLayers runs every probe and returns them as per-layer metrics.
func probeLayers(ctx context.Context, cloud *memcloud.Cloud, keys []uint64, val []byte, transport string) ([]layerMetric, error) {
	echo, err := probeEcho(ctx, cloud, 2000)
	if err != nil {
		return nil, err
	}
	lg, err := probeLocalGet(cloud, keys, 20)
	if err != nil {
		return nil, err
	}
	cp, err := probeCodecs(ctx, cloud, keys, val, 2000)
	if err != nil {
		return nil, err
	}
	batch := "one 64-key batch"
	return []layerMetric{
		{"msg.echo_rtt_us", "us", us(echo), "median of 2000 no-op Calls over " + transport},
		{"trunk.localget_us", "us", us(lg), fmt.Sprintf("mean over %d owner-side LocalGets", 20*len(keys))},
		{"memcloud.multiget_encode_us", "us", us(cp.getEncodeNs), batch},
		{"memcloud.multiget_decode_us", "us", us(cp.getDecodeNs), batch},
		{"memcloud.multiput_encode_us", "us", us(cp.putEncodeNs), fmt.Sprintf("%s of %d-byte values", batch, len(val))},
	}, nil
}

// nonOwner picks, from r in [0, n-1), a machine that does not own key.
func nonOwner(cloud *memcloud.Cloud, key uint64, r int) int {
	owner := int(cloud.Slave(0).Owner(key))
	return (owner + 1 + r) % cloud.Slaves()
}
