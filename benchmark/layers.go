package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/ip"
	"repro/internal/migrate"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Per-layer timings are the median over layerSegs equal-work segments
// of a single-threaded loop of layerOps calls.
const (
	layerSegs = 100
	layerOps  = 4096
)

// keep defeats dead-code elimination of the measured calls.
var keep int

// perOp runs fn (n operations per call) once to warm up and then segs
// times, and returns the median nanoseconds per operation.
func perOp(segs, n int, fn func()) float64 {
	return perOpPrep(segs, n, func() {}, fn)
}

// perOpPrep is perOp with an untimed prep before every timed call.
func perOpPrep(segs, n int, prep, fn func()) float64 {
	prep()
	fn()
	xs := make([]float64, segs)
	for i := range xs {
		prep()
		t0 := nowNs()
		fn()
		xs[i] = float64(nowNs()-t0) / float64(n)
	}
	return median(xs)
}

// allocsPer returns heap allocations and bytes per operation of fn (n
// operations per call), from runtime.MemStats deltas. The collector is
// off meanwhile: a collection empties the packet pool, and refilling
// it would add allocations that depend on when the collection fell, so
// the count would not repeat exactly.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	fn()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// rig is a detached proxy shard — what a plane worker owns — fed
// through InterceptAppend from the benchmark's own goroutine.
type rig struct {
	p   *proxy.Proxy
	out [][]byte
}

func newRig(seed int64, cmds []string) *rig {
	node := netsim.New(sim.NewScheduler(seed)).AddNode("replay")
	r := &rig{p: proxy.NewDetached(node, newCatalog())}
	for _, c := range cmds {
		if out := r.p.Exec(c); strings.HasPrefix(out, "error") {
			panic(fmt.Sprintf("bench: replay rig: %q: %s", c, out)) // fixed command lists: a bug
		}
	}
	return r
}

// run intercepts raws in order and returns what the shard emitted.
func (r *rig) run(raws [][]byte) [][]byte {
	r.out = r.out[:0]
	for _, raw := range raws {
		r.out = r.p.InterceptAppend(raw, nil, r.out)
	}
	return r.out
}

// fill generates the next n packets of g. They stay valid until g has
// handed out len(g.pool)-n more.
func fill(g *generator, dst [][]byte, n int) [][]byte {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		raw, _ := g.next()
		dst = append(dst, raw)
	}
	return dst
}

func keyString(k filter.Key) string {
	return fmt.Sprintf("%v %d %v %d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)
}

// repeat returns n references to one datagram.
func repeat(raw []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = raw
	}
	return out
}

// parseLoop is Parse+Release over raws.
func parseLoop(raws [][]byte) {
	for _, raw := range raws {
		if pkt, err := filter.Parse(raw); err == nil {
			keep += int(pkt.Key.SrcPort)
			pkt.Release()
		}
	}
}

// remarshalLoop is Parse, dirty, Remarshal, Release over raws: what the
// tcp filter's repair costs for each of them, plus the parse.
func remarshalLoop(raws [][]byte) {
	for _, raw := range raws {
		pkt, err := filter.Parse(raw)
		if err != nil {
			continue
		}
		pkt.MarkDirty()
		if pkt.Remarshal() == nil {
			keep += len(pkt.Raw)
		}
		pkt.Release()
	}
}

// microLayers measures the layers whose cost does not depend on the
// workload: fixed packet shapes, fixed rule counts, fixed edit counts.
func microLayers(seed int64, m map[string]float64) {
	one := trafficSpec{flows: 1, payload: 1460, ackEvery: 2}
	g := newGenerator(one, seed, 2*layerOps)
	var raws [][]byte

	// filter / ip / tcp codecs on an MSS-size segment and a bare ACK.
	data, _ := g.next()
	g.next()
	ack, _ := g.next()
	remarshalOf := func(raw []byte) (ns, allocs, bytes float64) {
		same := repeat(raw, layerOps)
		ns = perOp(layerSegs, layerOps, func() { remarshalLoop(same) }) -
			perOp(layerSegs, layerOps, func() { parseLoop(same) })
		allocs, bytes = allocsPer(layerOps, func() { remarshalLoop(same) })
		return ns, allocs, bytes
	}
	m["filter.remarshal_ns"], m["filter.remarshal_allocs"], m["filter.remarshal_bytes"] = remarshalOf(data)
	m["filter.remarshal_hdr_ns"], _, _ = remarshalOf(ack)
	payload := data[hdrLen:]
	m["ip.checksum_ns_1460"] = perOp(layerSegs, layerOps, func() {
		for i := 0; i < layerOps; i++ {
			keep += int(ip.Checksum(payload))
		}
	})
	seg := tcp.Segment{SrcPort: portBase, DstPort: serverPort, Flags: tcp.FlagACK, Window: 65535, Payload: payload}
	var scratch []byte
	m["tcp.marshal_ns_1460"] = perOp(layerSegs, layerOps, func() {
		for i := 0; i < layerOps; i++ {
			seg.Seq += 1460
			scratch = seg.AppendMarshal(scratch[:0], wiredAddr, mobileAddr)
		}
	})

	// tcp: wall time per MSS segment of a transfer nothing services.
	const transfer = 256 << 10
	body := pattern(transfer)
	xs := make([]float64, 0, layerSegs)
	for i := 0; i < layerSegs; i++ {
		sys := core.NewSystem(core.Config{Seed: seed, Wireless: netsim.LinkConfig{Bandwidth: 100e6, Delay: time.Millisecond}})
		t0 := nowNs()
		res, err := sys.Transfer(body, 7000, serverPort, 500*time.Millisecond)
		if err == nil && res.Completed {
			segs := (transfer + res.Client.MSS() - 1) / res.Client.MSS()
			xs = append(xs, float64(nowNs()-t0)/float64(segs))
		}
	}
	m["tcp.segment_ns"] = median(xs)

	// classifier: lookups against 1k and 8k registrations of the
	// proxy's common shape (concrete endpoints, wild destination port);
	// probes alternate hit and miss.
	rules := func(n int) []filter.Key {
		ks := make([]filter.Key, n)
		for i := range ks {
			ks[i] = filter.Key{SrcIP: wiredAddr, SrcPort: uint16(10000 + i%50000), DstIP: mobileAddr}
		}
		return ks
	}
	var probes [16]filter.Key
	for i := range probes {
		probes[i] = filter.Key{SrcIP: wiredAddr, SrcPort: uint16(10000 + i/2), DstIP: mobileAddr, DstPort: serverPort}
		if i%2 == 1 {
			probes[i].SrcPort = uint16(2000 + i)
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"classifier.match_ns_1k", 1000}, {"classifier.match_ns_8k", 8000}} {
		pr := classifier.Compile(rules(c.n))
		m[c.name] = perOp(layerSegs, layerOps, func() {
			for i := 0; i < layerOps; i++ {
				if pr.Match(probes[i&15]) {
					keep++
				}
			}
		})
	}
	r8k := rules(8000)
	m["classifier.compile_ms_8k"] = perOp(15, 1, func() { keep += classifier.Compile(r8k).Len() }) / 1e6

	// flowlog: a complete 7-packet lifecycle per flow on a table of its own.
	pool := buildChurnPool(seed, 512)
	var flowRaws [][]byte
	for i := range pool {
		flowRaws = append(flowRaws, pool[i][:]...)
	}
	recs := parseRecs(nil, flowRaws)
	tbl := flowlog.New(func() sim.Time { return 0 }, flowlog.Config{})
	lifecycle := func() {
		for i := range recs {
			tbl.Record(recs[i].k, &recs[i].seg, recs[i].n)
		}
	}
	m["flowlog.lifecycle_ns"] = perOp(layerSegs, len(pool), lifecycle)
	m["flowlog.allocs_per_flow"], _ = allocsPer(len(pool), lifecycle)

	// proxy: one established flow of 64-byte segments through chains of
	// growing depth; "miss" has registrations but none that matches.
	small := trafficSpec{flows: 1, payload: 64, ackEvery: 2}
	key := keyString(small.key(0))
	chain := func(depth int) []string {
		cmds := []string{"load tcp", "load rdrop", "add tcp " + key}
		for i := 0; i < depth; i++ {
			cmds = append(cmds, "add rdrop "+key+" 0")
		}
		return cmds
	}
	for _, c := range []struct {
		name string
		cmds []string
	}{
		{"proxy.intercept_miss_ns", []string{"load rdrop", fmt.Sprintf("add rdrop %v 9999 %v 0 0", wiredAddr, mobileAddr)}},
		{"proxy.intercept_tcp_ns", chain(0)},
		{"proxy.intercept_depth4_ns", chain(4)},
		{"proxy.intercept_depth8_ns", chain(8)},
	} {
		gs := newGenerator(small, seed, 2*layerOps)
		rg := newRig(seed, c.cmds)
		m[c.name] = perOpPrep(layerSegs, layerOps,
			func() { raws = fill(gs, raws, layerOps) }, func() { rg.run(raws) })
	}

	// filters: a pure ACK at the frontier of a TTSF that holds n live
	// edits (nothing acknowledges, so nothing is pruned).
	ttsfRig := func(edits int) (*rig, filter.Key, []byte) {
		spec := trafficSpec{flows: 1, payload: 1460, edits: true}
		k := keyString(spec.key(0))
		rg := newRig(seed, []string{"load tcp", "load ttsf", "load shrink", "add tcp " + k, "add ttsf " + k, "add shrink " + k})
		gt := newGenerator(spec, seed, 4*edits+layerOps)
		rg.run(fill(gt, nil, 2*edits))
		fl := &gt.flows[0]
		frontier := marshal(wiredAddr, mobileAddr, tcp.Segment{SrcPort: portBase, DstPort: serverPort,
			Seq: fl.seq, Ack: fl.revSeq, Flags: tcp.FlagACK, Window: 65535})
		return rg, spec.key(0), frontier
	}
	for _, n := range []int{16, 128, 4096} {
		rg, k, frontier := ttsfRig(n)
		same := repeat(frontier, layerOps)
		m[fmt.Sprintf("filters.ttsf_remap_ns_%d", n)] = perOp(layerSegs/4, layerOps, func() { rg.run(same) })
		if n == 128 {
			m["filters.ttsf_allocs_per_ack"], _ = allocsPer(layerOps, func() { rg.run(same) })
			// migrate: the snapshot of that stream, 128 live edits.
			ex, err := rg.p.ExportStream(k)
			if err != nil {
				panic(err) // the stream was just built
			}
			var enc []byte
			m["migrate.encode_us"] = perOp(layerSegs, 16, func() {
				for i := 0; i < 16; i++ {
					enc, _ = migrate.EncodeSnapshot(ex)
				}
			}) / 1e3
			m["migrate.decode_us"] = perOp(layerSegs, 16, func() {
				for i := 0; i < 16; i++ {
					if d, err := migrate.DecodeSnapshot(enc); err == nil {
						keep += len(d.States)
					}
				}
			}) / 1e3
			m["migrate.snapshot_bytes"] = float64(len(enc))
		}
	}

	// sim: schedule one timer and run it, with n far-future timers pending.
	for _, c := range []struct {
		name string
		n    int
	}{{"sim.event_ns_1k", 1000}, {"sim.event_ns_100k", 100_000}} {
		s := sim.NewScheduler(seed)
		for i := 0; i < c.n; i++ {
			s.After(time.Hour+time.Duration(i), func() {})
		}
		event := func() {
			for i := 0; i < layerOps; i++ {
				s.After(time.Nanosecond, func() { keep++ })
				s.Step()
			}
		}
		m[c.name] = perOp(layerSegs, layerOps, event)
		if c.n == 1000 {
			m["sim.allocs_per_event"], _ = allocsPer(layerOps, event)
		}
	}

	// netsim: one link hop between two nodes, in bursts the transmit
	// queue holds.
	sched := sim.NewScheduler(seed)
	nw := netsim.New(sched)
	a, b := nw.AddNode("a"), nw.AddNode("b")
	addrA, addrB := ip.MustParseAddr("10.9.0.1"), ip.MustParseAddr("10.9.0.2")
	nw.Connect(a, addrA, b, addrB, netsim.LinkConfig{Bandwidth: 10e9})
	const proto, burst = 253, 32
	b.RegisterProto(proto, func(ip.Header, []byte, []byte, *netsim.Iface) { keep++ })
	hop := pattern(64)
	m["netsim.hop_ns"] = perOp(layerSegs, layerOps, func() {
		for i := 0; i < layerOps/burst; i++ {
			for j := 0; j < burst; j++ {
				a.SendIP(addrB, proto, hop)
			}
			sched.Run()
		}
	})
}
