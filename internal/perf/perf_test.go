package perf

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/253)
	}
	return b
}

// mkTCP builds a raw wired→mobile TCP datagram (the E15 packet shape).
func mkTCP(tb testing.TB, seq uint32, payload int) []byte {
	tb.Helper()
	seg := tcp.Segment{SrcPort: 7, DstPort: 5001, Seq: seq, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535, Payload: pattern(payload)}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.WiredAddr, Dst: core.MobileAddr}
	raw, err := h.Marshal(seg.Marshal(core.WiredAddr, core.MobileAddr))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func probeKey() string {
	return fmt.Sprintf("%v 7 %v 5001", core.WiredAddr, core.MobileAddr)
}

// --- interception ------------------------------------------------------------

// TestInterceptPassThroughZeroAlloc gates the pass-through invariant:
// the registry holds one wild-card registration that does NOT match
// the probe stream, so every packet takes the compiled-classifier miss
// path, and that path must not allocate.
func TestInterceptPassThroughZeroAlloc(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 17})
	sys.MustCommand("load rdrop")
	sys.MustCommand(fmt.Sprintf("add rdrop %v 9999 %v 0 0", core.WiredAddr, core.MobileAddr))
	hook, in, raw := sys.ProxyHost.PacketHook(), sys.ProxyHost.Ifaces()[0], mkTCP(t, 1, 1000)
	hook(raw, in)
	if allocs := testing.AllocsPerRun(1000, func() { hook(raw, in) }); allocs != 0 {
		t.Fatalf("pass-through intercept allocates %.1f times per packet, want 0", allocs)
	}
}

// TestInterceptTCPFilterZeroAlloc gates the clean filtered path: the
// tcp bookkeeping filter sits on the probe stream's exact key, so the
// packet traverses a real filter queue but leaves clean (no remarshal).
func TestInterceptTCPFilterZeroAlloc(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 17})
	sys.MustCommand("load tcp")
	sys.MustCommand("add tcp " + probeKey())
	hook, in, raw := sys.ProxyHost.PacketHook(), sys.ProxyHost.Ifaces()[0], mkTCP(t, 1, 1000)
	hook(raw, in)
	if allocs := testing.AllocsPerRun(1000, func() { hook(raw, in) }); allocs != 0 {
		t.Fatalf("tcp-filtered intercept allocates %.1f times per packet, want 0", allocs)
	}
}

// mkTCPRev builds the reverse-direction (mobile→wired) ACK for the
// probe stream, acknowledging up to ack.
func mkTCPRev(tb testing.TB, seq, ack uint32) []byte {
	tb.Helper()
	seg := tcp.Segment{SrcPort: 5001, DstPort: 7, Seq: seq, Ack: ack,
		Flags: tcp.FlagACK, Window: 65535}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.MobileAddr, Dst: core.WiredAddr}
	raw, err := h.Marshal(seg.Marshal(core.MobileAddr, core.WiredAddr))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestInterceptFlowLogZeroAlloc gates the flow-log analytics plane on
// the serviced intercept path: bidirectional traffic of one
// established flow — advancing data segments that each arm an RTT
// probe, and the ACKs that resolve them — must not allocate. The
// packets are prebuilt in two distinct cycles so AllocsPerRun's
// warm-up invocation consumes the first (opening the flow and growing
// the table) and the measured invocation runs entirely on the
// advancing-frontier/new-data branches, not the retransmission path.
func TestInterceptFlowLogZeroAlloc(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 17})
	sys.MustCommand("load tcp")
	sys.MustCommand("add tcp " + probeKey())
	hook := sys.ProxyHost.PacketHook()
	in := sys.ProxyHost.Ifaces()[0]

	const perCycle = 512
	cycles := make([][][]byte, 2)
	seq := uint32(1)
	for c := range cycles {
		for i := 0; i < perCycle; i++ {
			cycles[c] = append(cycles[c], mkTCP(t, seq, 100))
			seq += 100
			cycles[c] = append(cycles[c], mkTCPRev(t, 1, seq))
		}
	}
	cycle := 0
	if allocs := testing.AllocsPerRun(1, func() {
		for _, raw := range cycles[cycle%len(cycles)] {
			hook(raw, in)
		}
		cycle++
	}); allocs != 0 {
		t.Fatalf("flow-logged intercept allocates %.0f times per cycle, want 0", allocs)
	}
	fs := sys.Proxy.FlowStats()
	if fs.Active != 1 || fs.RTTSamples == 0 {
		t.Fatalf("flow log missed the stream: active=%d rtt_samples=%d", fs.Active, fs.RTTSamples)
	}
}

// TestPacketParseReleaseZeroAlloc gates the packet codec on its own,
// so a decode regression is attributed to it rather than the proxy:
// decoding into a reused view, what every interception does, and
// Parse+Release, the pooled wrapper over the same decode.
func TestPacketParseReleaseZeroAlloc(t *testing.T) {
	raw := mkTCP(t, 1, 1000)
	var view filter.Packet
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := view.Decode(raw); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Decode into a reused view allocates %.1f times per packet, want 0", allocs)
	}
	if pkt, err := filter.Parse(raw); err != nil {
		t.Fatal(err)
	} else {
		pkt.Release()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		pkt, err := filter.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		pkt.Release()
	}); allocs != 0 {
		t.Fatalf("Parse+Release allocates %.1f times per packet, want 0", allocs)
	}
}

// BenchmarkPacketDecode times the proxy's decode on its own: a data
// segment with fwd-small's 64 payload bytes, a bare 40-byte ACK and an
// MSS-size segment of 1460 payload bytes, each decoded into one reused
// view, as every interception does:
//
//	go test -run '^$' -bench PacketDecode -benchmem ./internal/perf
func BenchmarkPacketDecode(b *testing.B) {
	for _, c := range []struct {
		name    string
		payload int
	}{{"data64", 64}, {"ack40", 0}, {"mss1460", 1460}} {
		b.Run(c.name, func(b *testing.B) {
			raw := mkTCP(b, 1, c.payload)
			var view filter.Packet
			for i := 0; i < b.N; i++ {
				if err := view.Decode(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- TTSF edit map -----------------------------------------------------------

// chopHalf is a minimal TTSF service for these gates: it truncates
// every data payload to half, forcing the TTSF to record one edit per
// segment.
type chopHalf struct{}

func (chopHalf) Name() string        { return "chop" }
func (chopHalf) Description() string { return "truncate payloads to half (test helper)" }
func (chopHalf) New(env filter.Env, k filter.Key, args []string) error {
	_, err := env.Attach(k, filter.Hooks{
		Filter: "chop", Priority: filter.Low,
		Out: func(p *filter.Packet) {
			if p.TCP != nil && len(p.TCP.Payload) > 1 {
				p.TCP.Payload = p.TCP.Payload[:len(p.TCP.Payload)/2]
				p.MarkDirty()
			}
		},
	})
	return err
}

// ttsfEditMapSetup builds a proxy whose probe stream runs under
// tcp+ttsf+chop and pushes edits data segments through it, so the
// TTSF's log holds that many live edits (no reverse traffic has
// flowed, so nothing is pruned). It returns the hook, the proxy's node
// (whose datagrams the proxy re-marshals into) and the next original
// sequence number.
func ttsfEditMapSetup(tb testing.TB, edits int) (hook netsim.Hook, in *netsim.Iface, node *netsim.Node, seq uint32) {
	tb.Helper()
	sys := core.NewSystem(core.Config{Seed: 17})
	sys.Catalog.Register("chop", func() filter.Factory { return chopHalf{} })
	sys.MustCommand("load tcp")
	sys.MustCommand("load ttsf")
	sys.MustCommand("load chop")
	sys.MustCommand("add tcp " + probeKey())
	sys.MustCommand("add ttsf " + probeKey())
	sys.MustCommand("add chop " + probeKey())
	hook = sys.ProxyHost.PacketHook()
	in = sys.ProxyHost.Ifaces()[0]
	node = sys.ProxyHost
	seq = 1000
	for i := 0; i < edits; i++ {
		raw := mkTCP(tb, seq, 100)
		release(node, raw, hook(raw, in))
		seq += 100
	}
	k := filter.Key{SrcIP: core.WiredAddr, SrcPort: 7,
		DstIP: core.MobileAddr, DstPort: 5001}
	if st, ok := filters.TTSFStatsFor(k); !ok || st.Edits != int64(edits) {
		tb.Fatalf("edit log has %d edits, want %d", st.Edits, edits)
	}
	return hook, in, node, seq
}

// release gives node back every output of raw's interception that is
// not raw itself, as the ring's shard worker does once its sink has
// returned, so the next re-marshal reuses the buffer.
func release(node *netsim.Node, raw []byte, out [][]byte) {
	for _, d := range out {
		if len(d) > 0 && &d[0] != &raw[0] {
			node.Release(d)
		}
	}
}

// skipTimingGate skips a wall-clock ratio gate where its verdict means
// nothing: under -short, and under the race detector, whose
// instrumentation reweights every memory access.
func skipTimingGate(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("timing gate: needs an uninstrumented binary and a few hundred ms")
	}
}

// fastestOf times a and b alternately and returns the shortest run of
// each. The ratio gates (TestTTSFEditMapFlat, TestRegistryLookupFlat,
// TestShardedNoCollapse) compare the two minima over the same fixed
// work: a neighbour on the host slows a run, not the verdict, and a
// host that changes speed for a while changes it for both sides. Noise
// only ever adds time, so the minima only improve with more runs: after
// every round of loops runs a side the helper stops if b's minimum is
// within bound of a's, and gives up after four rounds — a quiet host
// pays for one, a real regression fails all four.
func fastestOf(loops int, bound float64, a, b func()) (da, db time.Duration) {
	timed := func(work func()) time.Duration {
		start := time.Now()
		work()
		return time.Since(start)
	}
	da, db = 1<<63-1, 1<<63-1
	for round := 0; round < 4; round++ {
		for l := 0; l < loops; l++ {
			da = min(da, timed(a))
			db = min(db, timed(b))
		}
		if float64(db) <= bound*float64(da) {
			break
		}
	}
	return da, db
}

// TestTTSFEditMapFlat gates the indexed edit log: a pure ACK at the
// frontier maps its sequence number past every live edit by binary
// search over their cumulative deltas, so the remap against 4096 live
// edits costs at most 1.5x what it costs against 16.
func TestTTSFEditMapFlat(t *testing.T) {
	skipTimingGate(t)
	const acks, bound = 2000, 1.5
	remap := func(edits int) func() {
		hook, in, node, seq := ttsfEditMapSetup(t, edits)
		ack := mkTCP(t, seq, 0)
		return func() {
			for i := 0; i < acks; i++ {
				release(node, ack, hook(ack, in))
			}
		}
	}
	small, large := fastestOf(32, bound, remap(16), remap(4096))
	t.Logf("pure-ACK remap: %v at 16 live edits, %v at 4096", small/acks, large/acks)
	if float64(large) > bound*float64(small) {
		t.Fatalf("%d remaps at 4096 live edits cost %v, more than %vx the %v at 16", acks, large, bound, small)
	}
}

// TestRemarshalOneAlloc gates the single-buffer re-marshal: the one
// allocation is the datagram that escapes to the network.
func TestRemarshalOneAlloc(t *testing.T) {
	pkt, err := filter.Parse(mkTCP(t, 1, 1460))
	if err != nil {
		t.Fatal(err)
	}
	defer pkt.Release()
	if allocs := testing.AllocsPerRun(1000, func() {
		pkt.MarkDirty()
		if err := pkt.Remarshal(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("Remarshal allocates %.1f times per packet, want 1 (the datagram)", allocs)
	}
}

// TestEditedPacketRecycledZeroAlloc gates the edited path of a
// node-hosted proxy: under tcp plus an editing filter (chop) every
// data segment is re-marshalled, into a buffer off the node's network
// free list, and the network takes it back once the datagram has died
// at the far host. Each packet enters from a buffer off the same free
// list, which it goes back to where the proxy replaces it. So in steady
// state an edited packet crossing the proxy allocates nothing; a fresh
// datagram per re-marshal costs one allocation and 1.5 KB.
func TestEditedPacketRecycledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run it on an uninstrumented binary")
	}
	s := sim.NewScheduler(1)
	nw := netsim.New(s)
	a, px, b := nw.AddNode("a"), nw.AddNode("proxy"), nw.AddNode("b")
	px.Forwarding = true
	la := nw.Connect(a, core.WiredAddr, px, ip.MustParseAddr("10.9.0.2"), netsim.LinkConfig{Bandwidth: 10e9})
	nw.Connect(px, ip.MustParseAddr("10.9.1.1"), b, core.MobileAddr, netsim.LinkConfig{Bandwidth: 10e9})
	a.AddDefaultRoute(la.IfaceA())
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	cat.Register("chop", func() filter.Factory { return chopHalf{} })
	prox := proxy.New(px, cat)
	for _, c := range []string{"load tcp", "load chop", "add tcp " + probeKey(), "add chop " + probeKey()} {
		if out := prox.Exec(c); strings.HasPrefix(out, "error") {
			t.Fatalf("%s: %s", c, out)
		}
	}
	var got, intact int
	b.RegisterProto(ip.ProtoTCP, func(h ip.Header, payload, _ []byte, _ *netsim.Iface) {
		got++
		if seg, err := tcp.Unmarshal(payload); err == nil && len(seg.Payload) == 500 &&
			tcp.VerifyChecksum(h.Src, h.Dst, payload) {
			intact++
		}
	})
	const burst = 32
	raw := mkTCP(t, 1, 1000)
	perRun := testing.AllocsPerRun(100, func() {
		for i := 0; i < burst; i++ {
			d := a.Datagram(len(raw))
			copy(d, raw)
			a.InjectPacket(d)
		}
		s.Run()
	})
	if perPkt := perRun / burst; perPkt > 0 {
		t.Fatalf("an edited packet through the proxy allocates %.2f times, want 0", perPkt)
	}
	if want := 101 * burst; got != want || intact != want {
		t.Fatalf("%d datagrams reached the far host, %d of them halved with valid checksums, want %d", got, intact, want)
	}
	if st := prox.Stats; st.Filtered != int64(got) {
		t.Fatalf("the proxy filtered %d packets, want %d", st.Filtered, got)
	}
}

// TestTTSFReverseAckOneAlloc gates the reverse path of an editing
// stream: each ACK from the mobile is translated back to the sender's
// sequence space (so it is dirty and the tcp filter re-marshals it —
// the one allocation, the emitted datagram) and prunes the edit it
// covers. The log shrinks from 256 live edits to 128 over the measured
// ACKs, sliding down its backing array on the way; the remap and the
// prune must allocate nothing.
func TestTTSFReverseAckOneAlloc(t *testing.T) {
	const acks = 128
	hook, in, _, _ := ttsfEditMapSetup(t, 128+acks)
	// chop halves every 100-byte segment from sequence 1000 on, so the
	// mobile's n-th ACK, in its own sequence space, is 1000 + 50n.
	raws := make([][]byte, 0, acks+1)
	for n := 1; n <= acks+1; n++ {
		raws = append(raws, mkTCPRev(t, 1, uint32(1000+50*n)))
	}
	next := 0
	var last []byte
	if allocs := testing.AllocsPerRun(acks, func() { // acks runs and one warm-up
		last = hook(raws[next], in)[0]
		next++
	}); allocs != 1 {
		t.Fatalf("reverse ACK through tcp+ttsf allocates %.2f times, want 1 (the datagram)", allocs)
	}
	// The sender must hear the original bytes acknowledged: 100 a segment.
	pkt, err := filter.Parse(last)
	if err != nil {
		t.Fatal(err)
	}
	defer pkt.Release()
	if want := uint32(1000 + 100*(acks+1)); pkt.TCP.Ack != want {
		t.Fatalf("last ACK translated to %d, want %d", pkt.TCP.Ack, want)
	}
}
