package core

import (
	"fmt"
	"time"

	"repro/internal/eem"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// flowVarNames are the EEM variables the flow-log analytics plane
// exports: absolute fleet counters plus windowed traffic-condition
// ratios a policy rule can fire on (flow.retrans_ratio above all).
var flowVarNames = []string{
	"flow.active", "flow.opened", "flow.closed", "flow.evicted",
	"flow.pkts", "flow.data_pkts", "flow.retrans", "flow.zero_win",
	"flow.retrans_ratio", "flow.zero_win_rate", "flow.rtt_mean_ms",
	"flow.rtt",
}

// flowVarSource serves flow-log aggregates to the EEM. The windowed
// ratios are an eem.Window, like NodeSource's rates:
// flow.retrans_ratio is retransmitted-per-data segments over the last
// window, so it climbs while a degradation is losing packets and
// decays to zero once the link recovers — which is what lets a
// hysteresis rule revert. Windows are at least flowVarMinWindow wide:
// retransmissions cluster around RTO expiries, so a raw
// query-to-query delta (the EEM periodic pass and the policy pump both
// read these variables, fragmenting the intervals) would oscillate
// between 0 and spikes and flap any rule watching it.
type flowVarSource struct {
	sched  *sim.Scheduler
	proxy  *proxy.Proxy
	ratios eem.Window
}

func newFlowVarSource(s *sim.Scheduler, p *proxy.Proxy) *flowVarSource {
	return &flowVarSource{sched: s, proxy: p, ratios: eem.Window{Min: flowVarMinWindow}}
}

// Variables implements eem.Source.
func (s *flowVarSource) Variables() []string { return flowVarNames }

// Get implements eem.Source.
func (s *flowVarSource) Get(name string, index int) (eem.Value, error) {
	snap := s.proxy.FlowStats()
	switch name {
	case "flow.active":
		return eem.LongValue(snap.Active), nil
	case "flow.opened":
		return eem.LongValue(snap.Opened), nil
	case "flow.closed":
		return eem.LongValue(snap.Closed), nil
	case "flow.evicted":
		return eem.LongValue(snap.Evicted), nil
	case "flow.pkts":
		return eem.LongValue(snap.Pkts), nil
	case "flow.data_pkts":
		return eem.LongValue(snap.DataPkts), nil
	case "flow.retrans":
		return eem.LongValue(snap.Retrans), nil
	case "flow.zero_win":
		return eem.LongValue(snap.ZeroWin), nil
	case "flow.retrans_ratio":
		return eem.DoubleValue(s.ratio(name, index, snap.Retrans, snap.DataPkts)), nil
	case "flow.zero_win_rate":
		return eem.DoubleValue(s.ratio(name, index, snap.ZeroWin, snap.Pkts)), nil
	case "flow.rtt_mean_ms":
		return eem.DoubleValue(s.ratio(name, index, snap.RTTSumMicros, snap.RTTSamples) / 1000), nil
	case "flow.rtt":
		// Lifetime mean RTT in milliseconds — the stable baseline a
		// delay-aware rule compares the windowed flow.rtt_mean_ms
		// against.
		if snap.RTTSamples == 0 {
			return eem.DoubleValue(0), nil
		}
		return eem.DoubleValue(float64(snap.RTTSumMicros) / float64(snap.RTTSamples) / 1000), nil
	default:
		return eem.Value{}, fmt.Errorf("%w: core: flow source has no variable %q", eem.ErrUnknownVar, name)
	}
}

// flowVarMinWindow is the minimum width of a ratio window.
const flowVarMinWindow = 2 * time.Second

// ratio returns num/den over the last completed window (0 for an
// empty or first window).
func (s *flowVarSource) ratio(name string, index int, num, den int64) float64 {
	return s.ratios.Roll(s.sched.Now(), name, index, num, den, func(_ time.Duration, dn, dd int64) float64 {
		if dd > 0 {
			return float64(dn) / float64(dd)
		}
		return 0
	})
}

var _ eem.Source = (*flowVarSource)(nil)
