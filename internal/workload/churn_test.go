package workload_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// TestChurnFlowShape parses one generated flow back and checks the
// wire order the tcp bookkeeping filter depends on: SYN forward,
// SYN-ACK reverse, ACK, data, then a FIN in each direction.
func TestChurnFlowShape(t *testing.T) {
	c := workload.NewChurn(workload.ChurnConfig{DataPkts: 3, PayloadSize: 128})
	flow := c.NextFlow()
	if len(flow) != c.PacketsPerFlow() || len(flow) != 8 {
		t.Fatalf("flow has %d packets, want %d", len(flow), c.PacketsPerFlow())
	}
	type step struct {
		forward bool
		flags   uint8
		payload int
	}
	want := []step{
		{true, tcp.FlagSYN, 0},
		{false, tcp.FlagSYN | tcp.FlagACK, 0},
		{true, tcp.FlagACK, 0},
		{true, tcp.FlagACK, 128},
		{true, tcp.FlagACK, 128},
		{true, tcp.FlagACK, 128},
		{true, tcp.FlagFIN | tcp.FlagACK, 0},
		{false, tcp.FlagFIN | tcp.FlagACK, 0},
	}
	client := ip.AddrFrom4(11, 11, 10, 99)
	server := ip.AddrFrom4(11, 11, 10, 10)
	for i, raw := range flow {
		h, body, err := ip.Unmarshal(raw)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		seg, err := tcp.Unmarshal(body)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		src, dst := client, server
		if !want[i].forward {
			src, dst = server, client
		}
		if h.Src != src || h.Dst != dst {
			t.Fatalf("packet %d: %v->%v, want %v->%v", i, h.Src, h.Dst, src, dst)
		}
		if seg.Flags != want[i].flags {
			t.Fatalf("packet %d: flags %#x, want %#x", i, seg.Flags, want[i].flags)
		}
		if len(seg.Payload) != want[i].payload {
			t.Fatalf("packet %d: %d payload bytes, want %d", i, len(seg.Payload), want[i].payload)
		}
		if seg.DstPort != 5001 && seg.SrcPort != 5001 {
			t.Fatalf("packet %d: neither port is the configured 5001", i)
		}
	}
}

// TestChurnFreshKeys: consecutive flows never share a stream key, and
// the source address advances once the port range wraps.
func TestChurnFreshKeys(t *testing.T) {
	c := workload.NewChurn(workload.ChurnConfig{})
	seen := make(map[filter.Key]bool)
	var firstIP ip.Addr
	for i := 0; i < 70000; i++ {
		flow := c.NextFlow()
		h, body, err := ip.Unmarshal(flow[0])
		if err != nil {
			t.Fatal(err)
		}
		seg, err := tcp.Unmarshal(body)
		if err != nil {
			t.Fatal(err)
		}
		k := filter.Key{SrcIP: h.Src, SrcPort: seg.SrcPort, DstIP: h.Dst, DstPort: seg.DstPort}
		if seen[k] {
			t.Fatalf("flow %d reuses key %v", i, k)
		}
		seen[k] = true
		if i == 0 {
			firstIP = h.Src
		}
	}
	// 70000 flows overflow the 64511-port cycle, so at least two source
	// addresses must have appeared.
	c2 := workload.NewChurn(workload.ChurnConfig{})
	for i := 0; i < 64512; i++ {
		c2.NextFlow()
	}
	h, _, err := ip.Unmarshal(c2.NextFlow()[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.Src == firstIP {
		t.Fatalf("source address did not advance after port wrap")
	}
}

// TestChurnDriveStats: Drive's totals agree with what it emitted.
func TestChurnDriveStats(t *testing.T) {
	c := workload.NewChurn(workload.ChurnConfig{})
	var pkts int
	var bytes int64
	st := c.Drive(100, func(raw []byte) {
		pkts++
		bytes += int64(len(raw))
	})
	if st.Flows != 100 || st.Packets != pkts || st.Bytes != bytes {
		t.Fatalf("stats %+v disagree with emitted %d packets / %d bytes", st, pkts, bytes)
	}
	if want := 100 * c.PacketsPerFlow(); pkts != want {
		t.Fatalf("emitted %d packets, want %d", pkts, want)
	}
}

// TestChurnLauncherStorm is the instantiation-storm lifecycle check:
// a wild-card launcher registration spawns a tcp bookkeeping filter
// for every fresh flow, so a churn burst creates thousands of queues
// — and every one of them must be reclaimed once the FIN handshakes
// age past the tcp filter's close grace. A leak here is the
// million-flow memory cliff the registry redesign is meant to survive.
// Three storms run on one system: the second and third are built from
// the queues, attachments and tcp instances the one before gave back,
// and must come out the same — every flow a queue pair, every pair
// reclaimed, every flow closed in the flow log. (The free lists'
// lengths are held in internal/proxy's TestFreeListsBoundedByLiveSet.)
func TestChurnLauncherStorm(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 23})
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("add launcher 0.0.0.0 0 0.0.0.0 0 tcp")
	hook := sys.ProxyHost.PacketHook()
	in := sys.ProxyHost.Ifaces()[0]

	c := workload.NewChurn(workload.ChurnConfig{DataPkts: 1, PayloadSize: 64})
	closed := 0
	for storm, flows := range []int{2000, 3000, 1000} {
		st := c.Drive(flows, func(raw []byte) { hook(raw, in) })
		if st.Flows != flows {
			t.Fatalf("storm %d: drove %d flows, want %d", storm, st.Flows, flows)
		}
		// Mid-storm: every flow spawned a queue pair and the FIN teardowns
		// are still inside the close grace, so the queues are live.
		if got := sys.Proxy.QueueCount(); got != int64(2*flows) {
			t.Fatalf("storm %d: %d live queues after %d spawned flows, want %d", storm, got, flows, 2*flows)
		}
		// Let simulated time pass the tcp filter's close grace: all
		// scheduled removals fire and the proxy returns to empty.
		sys.Sched.RunFor(30e9)
		if got := sys.Proxy.QueueCount(); got != 0 {
			t.Fatalf("storm %d: %d queues leaked after close grace", storm, got)
		}
		closed += flows
		if fs := sys.Proxy.FlowStats(); fs.Closed != int64(closed) || fs.Active != 0 {
			t.Fatalf("storm %d: flow log has %d closed and %d active flows, want %d and 0", storm, fs.Closed, fs.Active, closed)
		}
	}
}
