package filters

import (
	"fmt"
	"strconv"

	"repro/internal/filter"
	"repro/internal/tcp"
)

// rdrop randomly drops data-bearing packets at a configured rate
// (§5.3.2, §8.1.5). Under a TTSF the drop is permanent — the dropped
// bytes are excised from the stream and both endpoints stay
// consistent; without a TTSF it is ordinary loss that TCP repairs.
//
// Argument: drop percentage 0..100 (the thesis example uses 50).
type rdrop struct{}

// NewRDrop returns the rdrop filter factory.
func NewRDrop() filter.Factory { return &rdrop{} }

func (*rdrop) Name() string { return "rdrop" }
func (*rdrop) Description() string {
	return "randomly drops data packets at a given percentage"
}

func (f *rdrop) New(env filter.Env, k filter.Key, args []string) error {
	rate := 50.0
	if len(args) > 0 {
		v, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(v >= 0 && v <= 100) { // NaN fails every comparison
			return fmt.Errorf("rdrop: bad rate %q (want 0..100)", args[0])
		}
		rate = v
	}
	// The outcome is open only strictly between 0 and 100: there the
	// hook takes one draw per eligible segment from the scheduler's
	// random stream; at 0 it never drops and at 100 always drops, and
	// neither draws.
	p := rate / 100
	rng := env.Clock().Rand()
	_, err := env.Attach(k, filter.Hooks{
		Filter: "rdrop", Priority: filter.Low,
		Out: func(pkt *filter.Packet) {
			if p == 0 || pkt.Dropped() || pkt.TCP == nil || len(pkt.TCP.Payload) == 0 {
				return
			}
			// Never drop SYN or FIN segments: they carry control
			// semantics a data-reduction service must not touch.
			if pkt.TCP.Flags&(tcp.FlagSYN|tcp.FlagFIN) != 0 {
				return
			}
			if p == 1 || rng.Float64() < p {
				pkt.Drop()
			}
		},
	})
	return err
}
