package main

import (
	"runtime"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// flowRec is a pre-parsed segment for the flow-log loop.
type flowRec struct {
	k   filter.Key
	seg tcp.Segment
	n   int
}

func parseRecs(dst []flowRec, raws [][]byte) []flowRec {
	dst = dst[:0]
	for _, raw := range raws {
		pkt, err := filter.Parse(raw)
		if err != nil || pkt.TCP == nil {
			panic("bench: generated packet does not parse") // a generator bug
		}
		dst = append(dst, flowRec{pkt.Key, *pkt.TCP, len(raw)})
		pkt.Release()
	}
	return dst
}

// timed runs fn and returns its wall time in nanoseconds per op.
func timed(n int, fn func()) float64 {
	t0 := nowNs()
	fn()
	return float64(nowNs()-t0) / float64(n)
}

// edited returns the datagrams of out that the shard re-marshalled: an
// untouched packet comes back as the very buffer that went in.
func edited(dst, raws, out [][]byte) [][]byte {
	dst = dst[:0]
	for i := range out {
		if i >= len(raws) || &out[i][0] != &raws[i][0] {
			dst = append(dst, out[i])
		}
	}
	return dst
}

// replayPlane re-runs a concurrent-plane workload's own packet
// sequence single-threaded, one layer per loop, and attributes the
// time of one InterceptAppend to its parts:
//
//	intercept = parse + flowlog + self + hooks + ttsf + remarshal
//
// parse, flowlog and remarshal are measured directly through the
// layers' public functions. The rest are differences between detached
// shards that differ in one thing: "shaped" carries nops in place of
// every filter, "nottsf" the chain without the TTSF. self — queue
// lookup, hook dispatch, stats — is what remains of the shaped shard
// once parse and flow log are taken out; it cannot be called from
// outside, so it is the budget's residual.
func replayPlane(w *planeWorkload, seed int64, liveRate float64, tr *tracer, m map[string]float64) {
	g := newGenerator(w.spec, seed, 2*layerOps)
	full := newRig(seed, w.commands(chainFull))
	shaped := newRig(seed, w.commands(chainShaped))
	var nottsf, kinds *rig
	if w.ttsf {
		nottsf = newRig(seed, w.commands(chainNoTTSF))
		kinds = newRig(seed, w.commands(chainFull))
	}
	tbl := flowlog.New(func() sim.Time { return 0 }, flowlog.Config{})
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: planeShards(), Catalog: newCatalog(), Seed: seed, RingSize: ringSize})
	defer pl.Close()

	var raws, ed [][]byte
	var recs []flowRec
	col := map[string][]float64{}
	put := func(name string, v float64) { col[name] = append(col[name], v) }
	var kindNs, kindN [3]float64 // edit, rewrite, ack
	var ms0, ms1 runtime.MemStats

	for seg := -2; seg < layerSegs; seg++ { // two untimed warm-up segments
		raws = fill(g, raws, layerOps)
		recs = parseRecs(recs, raws)
		steerKey := timed(layerOps, func() {
			for _, raw := range raws {
				k, _ := filter.SteerKey(raw)
				keep += int(k.SrcPort)
			}
		})
		steer := timed(layerOps, func() {
			for _, raw := range raws {
				k, _ := filter.SteerKey(raw)
				keep += dataplane.ShardOf(k, 8)
			}
		})
		parse := timed(layerOps, func() { parseLoop(raws) })
		flow := timed(layerOps, func() {
			for i := range recs {
				tbl.Record(recs[i].k, &recs[i].seg, recs[i].n)
			}
		})
		runtime.ReadMemStats(&ms0)
		var out [][]byte
		c2 := timed(layerOps, func() { out = full.run(raws) })
		runtime.ReadMemStats(&ms1)
		ed = edited(ed, raws, out)
		r2 := timed(layerOps, func() { remarshalLoop(ed) }) - timed(layerOps, func() { parseLoop(ed) })
		c0 := timed(layerOps, func() { shaped.run(raws) })
		c1, r1 := c2, r2
		if w.ttsf {
			c1 = timed(layerOps, func() { out = nottsf.run(raws) })
			ed = edited(ed, raws, out)
			r1 = timed(layerOps, func() { remarshalLoop(ed) }) - timed(layerOps, func() { parseLoop(ed) })
		}
		dispatch := timed(layerOps, func() {
			for _, raw := range raws {
				pl.Dispatch(raw)
			}
		})
		pl.Drain()
		if seg == 0 {
			replaySpans(tr, raws[:256], tbl)
		}
		if seg < 0 {
			continue
		}
		put("filter.steerkey_ns", steerKey)
		put("dataplane.steer_ns", steer)
		put("filter.parse_ns", parse)
		put("flowlog.record_ns", flow)
		put("proxy.intercept_ns", c2)
		put("filter.remarshal_share_ns", r2)
		put("filters.ttsf_ns", (c2-r2)-(c1-r1))
		put("filters.hooks_ns", (c1-r1)-c0)
		put("proxy.self_ns", c0-parse-flow)
		put("dataplane.dispatch_ns", dispatch)
		put("proxy.allocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/layerOps)
		put("proxy.bytes_per_pkt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/layerOps)
		if kinds != nil {
			// One clock read per packet: each kind's time includes it.
			t := nowNs()
			for _, raw := range raws {
				kinds.out = kinds.p.InterceptAppend(raw, nil, kinds.out[:0])
				t1 := nowNs()
				k := 2
				if len(raw) > hdrLen {
					k = 1
					if len(kinds.out[0]) < len(raw) {
						k = 0
					}
				}
				kindNs[k] += float64(t1 - t)
				kindN[k]++
				t = t1
			}
		}
	}
	for name, xs := range col {
		m[name] = median(xs)
	}
	m["proxy.residual_pct"] = 100 * m["proxy.self_ns"] / m["proxy.intercept_ns"]
	for i, name := range []string{"proxy.intercept_edit_ns", "proxy.intercept_rewrite_ns", "proxy.intercept_ack_ns"} {
		if kindN[i] > 0 {
			m[name] = kindNs[i] / kindN[i]
		}
	}
	if liveRate > 0 {
		// The closed loop is worker-bound: a worker spends 1/rate per
		// packet, of which intercept is the part the shard does inline.
		m["dataplane.handoff_ns"] = 1e9*float64(planeShards())/liveRate - m["proxy.intercept_ns"]
	}
}

// replaySpans records, for a few packets, one span per layer call in
// the order a shard makes them, under a root per packet.
func replaySpans(tr *tracer, raws [][]byte, tbl *flowlog.Table) {
	if tr == nil {
		return
	}
	for i, raw := range raws {
		root := tr.reserve()
		t0 := nowNs()
		k, _ := filter.SteerKey(raw)
		keep += dataplane.ShardOf(k, 8)
		t1 := nowNs()
		pkt, err := filter.Parse(raw)
		t2 := nowNs()
		if err != nil {
			continue
		}
		if pkt.TCP != nil {
			tbl.Record(pkt.Key, pkt.TCP, len(raw))
		}
		t3 := nowNs()
		pkt.Release()
		t4 := nowNs()
		tr.add("dataplane.steer", root, int64(i), t0, t1)
		tr.add("filter.Parse", root, int64(i), t1, t2)
		tr.add("flowlog.Record", root, int64(i), t2, t3)
		tr.add("filter.Release", root, int64(i), t3, t4)
		tr.set(root, "replay.packet", 0, int64(i), t0, t4)
	}
}

// replayChurn attributes a flow's time on the inline plane: the
// first-sight SYN that classifies, spawns and builds the queue pair,
// the six packets that follow, and the flow's share of the clock
// advance that tears the queues down.
func replayChurn(seed int64, m map[string]float64) {
	r := buildChurn(seed)
	tbl := flowlog.New(func() sim.Time { return 0 }, flowlog.Config{})
	var recs []flowRec
	var raws [][]byte
	col := map[string][]float64{}
	put := func(name string, v float64) { col[name] = append(col[name], v) }
	var ms0, ms1 runtime.MemStats
	const perSeg = churnAdvance
	for seg := -2; seg < layerSegs; seg++ {
		runtime.ReadMemStats(&ms0)
		var synNs, restNs int64
		for round := 0; round < perSeg/churnWidth; round++ {
			fl := r.pool[r.next : r.next+churnWidth]
			r.next = (r.next + churnWidth) % len(r.pool)
			for p := 0; p < len(fl[0]); p++ {
				t0 := nowNs()
				for f := range fl {
					keep += len(r.hook(fl[f][p], r.in))
				}
				if d := nowNs() - t0; p == 0 {
					synNs += d
				} else {
					restNs += d
				}
			}
			if round == 0 {
				raws = raws[:0]
				for f := range fl {
					raws = append(raws, fl[f][:]...)
				}
			}
		}
		t0 := nowNs()
		r.sys.Sched.RunFor(churnGrace)
		teardown := float64(nowNs()-t0) / perSeg
		runtime.ReadMemStats(&ms1)
		recs = parseRecs(recs, raws)
		parse := timed(len(raws), func() { parseLoop(raws) })
		flow := timed(len(raws), func() {
			for i := range recs {
				tbl.Record(recs[i].k, &recs[i].seg, recs[i].n)
			}
		})
		steerKey := timed(len(raws), func() {
			for _, raw := range raws {
				k, _ := filter.SteerKey(raw)
				keep += int(k.SrcPort)
			}
		})
		if seg < 0 {
			continue
		}
		put("proxy.flow_setup_ns", float64(synNs)/perSeg)
		put("proxy.flow_teardown_ns", teardown)
		put("proxy.intercept_ns", float64(restNs)/(6*perSeg))
		put("filter.parse_ns", parse)
		put("filter.steerkey_ns", steerKey)
		put("flowlog.record_ns", flow)
		put("proxy.allocs_per_flow", float64(ms1.Mallocs-ms0.Mallocs)/perSeg)
		put("proxy.bytes_per_flow", float64(ms1.TotalAlloc-ms0.TotalAlloc)/perSeg)
	}
	for name, xs := range col {
		m[name] = median(xs)
	}
}
