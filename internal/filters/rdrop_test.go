package filters_test

import (
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// mkSeg builds a parsed forward segment with the given flags.
func mkSeg(flags uint8, payload []byte) *filter.Packet {
	seg := tcp.Segment{SrcPort: 7, DstPort: 80, Seq: 1000, Ack: 1,
		Flags: flags, Window: 65535, Payload: payload}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: uSender, Dst: uMobile}
	raw, _ := h.Marshal(seg.Marshal(uSender, uMobile))
	p, _ := filter.Parse(raw)
	return p
}

// rdropUnit instantiates an rdrop at rate on uKey over a fresh fakeEnv
// (scheduler seed 1) and returns its Out hook.
func rdropUnit(t *testing.T, rate string) (*fakeEnv, func(*filter.Packet)) {
	t.Helper()
	env := newFakeEnv()
	if err := filters.NewRDrop().New(env, uKey, []string{rate}); err != nil {
		t.Fatal(err)
	}
	return env, env.hooks[uKey][0].Out
}

// drawsTaken reports how many draws env's scheduler stream has given
// out, by matching its next value against a fresh source of the same
// seed. It consumes that value.
func drawsTaken(t *testing.T, env *fakeEnv) int {
	t.Helper()
	next := env.Clock().Rand().Float64()
	ref := rand.New(rand.NewSource(1))
	for n := 0; n < 4096; n++ {
		if ref.Float64() == next {
			return n
		}
	}
	t.Fatal("scheduler stream does not follow a fresh source of its seed")
	return -1
}

// TestRDropDrawContract pins how an rdrop spends the scheduler's
// shared random stream: one draw per eligible data segment where its
// rate leaves the outcome open, none where it does not.
func TestRDropDrawContract(t *testing.T) {
	data := []byte("payload")
	for _, tc := range []struct {
		rate string
		p    float64
	}{{"0", 0}, {"100", 1}, {"37.5", 0.375}, {"50", 0.5}} {
		t.Run("rate"+tc.rate, func(t *testing.T) {
			env, out := rdropUnit(t, tc.rate)
			open := tc.p > 0 && tc.p < 1
			ref := rand.New(rand.NewSource(1))
			const n = 64
			for i := 0; i < n; i++ {
				pkt := mkSeg(tcp.FlagACK, data)
				out(pkt)
				want := tc.p == 1
				if open {
					want = ref.Float64() < tc.p
				}
				if pkt.Dropped() != want {
					t.Fatalf("segment %d: dropped %v, want %v", i, pkt.Dropped(), want)
				}
			}
			want := 0
			if open {
				want = n
			}
			if got := drawsTaken(t, env); got != want {
				t.Fatalf("%d data segments took %d draws, want %d", n, got, want)
			}
		})
	}
}

// TestRDropControlSegmentsNeverDraw: SYN, FIN (with or without data)
// and pure ACKs pass untouched and take no draw at any rate.
func TestRDropControlSegmentsNeverDraw(t *testing.T) {
	for _, rate := range []string{"0", "1", "50", "99.9", "100"} {
		env, out := rdropUnit(t, rate)
		for _, pkt := range []*filter.Packet{
			mkSeg(tcp.FlagSYN, nil),
			mkSeg(tcp.FlagSYN|tcp.FlagACK, []byte("syn data")),
			mkSeg(tcp.FlagFIN|tcp.FlagACK, nil),
			mkSeg(tcp.FlagFIN|tcp.FlagACK, []byte("last bytes")),
			mkSeg(tcp.FlagACK, nil),
		} {
			out(pkt)
			if pkt.Dropped() {
				t.Fatalf("rate %s: dropped a control segment (flags %#x, %d payload bytes)",
					rate, pkt.TCP.Flags, len(pkt.TCP.Payload))
			}
		}
		if got := drawsTaken(t, env); got != 0 {
			t.Fatalf("rate %s: control segments took %d draws, want 0", rate, got)
		}
	}
}
