package faults

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/filter"
	"repro/internal/tcp"
)

// RegisterChaosFilter adds the "chaos" fault filter to a catalog. It is
// the in-proxy half of the fault plane: where the Injector breaks the
// world around the Service Proxy, this filter misbehaves *inside* its
// filter queues, exercising panic isolation, quarantine, and insertion
// failure handling. Modes (first argument of the SP "add" command):
//
//	panic         In method panics on every data-bearing segment; the
//	              proxy must isolate the panic and quarantine the
//	              filter after QuarantineStrikes, failing open.
//	err           the insertion method itself fails; the "add" command
//	              must surface a diagnostic and leave the SP healthy.
//	drop <pct>    deterministically drops pct% of data segments
//	              (seeded scheduler RNG), modelling a buggy
//	              data-reduction filter.
//	delay <ms> [every]
//	              holds every every-th data segment (default 5) and
//	              re-injects it ms later — deterministic latency and
//	              reordering injection.
func RegisterChaosFilter(c *filter.Catalog) {
	c.Register("chaos", func() filter.Factory { return &chaosFilter{} })
}

type chaosFilter struct{}

func (*chaosFilter) Name() string              { return "chaos" }
func (*chaosFilter) Priority() filter.Priority { return filter.Normal }
func (*chaosFilter) Description() string {
	return "fault injection: panic, insertion err, deterministic drop/delay"
}

// isData reports whether pkt is a data-bearing TCP segment that is safe
// to misbehave on — chaos never touches SYN/FIN, matching the contract
// real data-reduction filters follow.
func isData(pkt *filter.Packet) bool {
	return pkt.TCP != nil && len(pkt.TCP.Payload) > 0 &&
		pkt.TCP.Flags&(tcp.FlagSYN|tcp.FlagFIN) == 0
}

func (f *chaosFilter) New(env filter.Env, k filter.Key, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("chaos: usage: panic | err | drop <pct> | delay <ms> [every]")
	}
	switch args[0] {
	case "err":
		return fmt.Errorf("chaos: injected insertion failure on %v", k)
	case "panic":
		_, err := env.Attach(k, filter.Hooks{
			Filter: "chaos", Priority: filter.Normal,
			In: func(pkt *filter.Packet) {
				if isData(pkt) {
					panic("chaos: injected filter panic")
				}
			},
		})
		return err
	case "drop":
		p := 0.1
		if len(args) > 1 {
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil || !(v >= 0 && v <= 100) { // NaN fails every comparison
				return fmt.Errorf("chaos: bad drop pct %q (want 0..100)", args[1])
			}
			p = v / 100
		}
		_, err := env.Attach(k, filter.Hooks{
			Filter: "chaos", Priority: filter.Normal,
			Out: func(pkt *filter.Packet) {
				if pkt.Dropped() || !isData(pkt) {
					return
				}
				if env.Clock().Rand().Float64() < p {
					pkt.Drop()
				}
			},
		})
		return err
	case "delay":
		if len(args) < 2 {
			return fmt.Errorf("chaos: usage: delay <ms> [every]")
		}
		ms, err := strconv.Atoi(args[1])
		if err != nil || ms <= 0 {
			return fmt.Errorf("chaos: bad delay %q (want ms > 0)", args[1])
		}
		every := 5
		if len(args) > 2 {
			if every, err = strconv.Atoi(args[2]); err != nil || every <= 0 {
				return fmt.Errorf("chaos: bad stride %q (want > 0)", args[2])
			}
		}
		d := time.Duration(ms) * time.Millisecond
		n := 0
		_, err = env.Attach(k, filter.Hooks{
			Filter: "chaos", Priority: filter.Normal,
			Out: func(pkt *filter.Packet) {
				if pkt.Dropped() || !isData(pkt) {
					return
				}
				n++
				if n%every != 0 {
					return
				}
				// Snapshot the segment (Encode allocates a fresh,
				// checksummed datagram — the pooled Packet is invalid by
				// the time the timer fires), swallow the original, and
				// re-inject the copy d later. Injected datagrams bypass
				// interception, so a delayed packet is not re-delayed.
				raw, encErr := pkt.Encode()
				if encErr != nil {
					return
				}
				pkt.Drop()
				env.Clock().After(d, func() { env.Inject(raw) })
			},
		})
		return err
	default:
		return fmt.Errorf("chaos: unknown mode %q (want panic|err|drop|delay)", args[0])
	}
}
