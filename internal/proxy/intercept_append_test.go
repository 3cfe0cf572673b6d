package proxy_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func mkDgram(t testing.TB, srcPort uint16, seq uint32, payload []byte) []byte {
	t.Helper()
	src := ip.MustParseAddr("11.11.10.99")
	dst := ip.MustParseAddr("11.11.10.10")
	seg := tcp.Segment{SrcPort: srcPort, DstPort: 5001, Seq: seq, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535, Payload: payload}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: dst}
	raw, err := h.Marshal(seg.Marshal(src, dst))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestInterceptAppendBufferStability pins the contract the batched
// data plane depends on: buffers appended by InterceptAppend stay
// intact across any number of subsequent interceptions — whether they
// were the caller's raw passthrough or freshly marshalled modified
// packets — because the proxy never reuses them. (Intercept's own emit
// slice is the reusable thing; InterceptAppend exists so a shard can
// accumulate a whole batch's output before one sink delivery.)
func TestInterceptAppendBufferStability(t *testing.T) {
	cat := filter.NewCatalog()
	cat.Register("trunc", func() filter.Factory {
		return &fakeFilter{name: "trunc",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{
					Filter: "trunc", Priority: filter.Normal,
					Out: func(pkt *filter.Packet) {
						if pkt.TCP == nil || len(pkt.TCP.Payload) == 0 {
							return
						}
						pkt.TCP.Payload = pkt.TCP.Payload[:len(pkt.TCP.Payload)-1]
						pkt.MarkDirty()
					},
				})
				return err
			}}
	})
	s := sim.NewScheduler(5)
	net := netsim.New(s)
	node := net.AddNode("proxy")
	p := proxy.NewDetached(node, cat)
	if out := p.Exec("load trunc"); out != "trunc\n" {
		t.Fatalf("load output %q", out)
	}
	// Odd flows get the remarshalling filter; even flows pass the
	// caller's raw buffer through untouched. Both kinds must be stable.
	if out := p.Exec("add trunc 11.11.10.99 1001 11.11.10.10 5001"); out != "" {
		t.Fatalf("add output %q", out)
	}
	if out := p.Exec("add trunc 11.11.10.99 1003 11.11.10.10 5001"); out != "" {
		t.Fatalf("add output %q", out)
	}

	const rounds = 40
	var batch [][]byte
	var want [][]byte
	seqs := map[uint16]uint32{1000: 1, 1001: 1, 1002: 1, 1003: 1}
	for i := 0; i < rounds; i++ {
		port := uint16(1000 + i%4)
		payload := []byte(fmt.Sprintf("round=%d port=%d data", i, port))
		raw := mkDgram(t, port, seqs[port], payload)
		seqs[port] += uint32(len(payload))
		before := len(batch)
		batch = p.InterceptAppend(raw, nil, batch)
		for _, out := range batch[before:] {
			want = append(want, append([]byte(nil), out...))
		}
	}
	if len(batch) != rounds {
		t.Fatalf("accumulated %d outputs over %d interceptions", len(batch), rounds)
	}
	// Every buffer appended along the way must still hold the bytes it
	// held the moment it was appended.
	for i := range want {
		if !bytes.Equal(batch[i], want[i]) {
			t.Fatalf("output %d mutated by a later interception:\n got %q\nwant %q",
				i, batch[i], want[i])
		}
	}
	// The filtered flows really were remarshalled (shorter payload), so
	// the stability above covered fresh buffers, not just passthrough.
	snap := p.Stats
	if snap.Filtered == 0 {
		t.Fatal("no packet went through the modifying filter")
	}
	if snap.Intercepted != rounds {
		t.Fatalf("intercepted %d, want %d", snap.Intercepted, rounds)
	}
}
