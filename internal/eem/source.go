package eem

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// Source supplies variable values to an EEM server. The server's
// modular query mechanism (thesis §6.2: "designed so that it can
// access a wide and easily extensible variety of information sources")
// is this interface: register as many sources as the host offers.
type Source interface {
	// Variables lists the variable names this source serves.
	Variables() []string
	// Get returns the current value of a variable. index selects an
	// instance for tabular variables (e.g. per-interface counters).
	Get(name string, index int) (Value, error)
}

// SNMPVariables are the MIB-II names the EEM serves (thesis Table 6.1).
var SNMPVariables = []string{
	"sysDescr", "sysObjectID", "sysUpTime", "sysContact", "sysName",
	"sysLocation", "sysServices",
	"ipInReceives", "ipInHdrErrors", "ipInAddrErrors", "ipForwDatagrams",
	"ipInUnknownProtos", "ipInDiscards", "ipInDelivers", "ipOutRequests",
	"ipOutDiscards", "ipOutNoRoutes", "ipRoutingDiscard",
	"udpInDatagrams", "udpNoPorts", "udpInErrors",
	"tcpRtoAlgorithm", "tcpRtoMax", "tcpRtoMin", "tcpMaxConn",
	"tcpActiveOpens", "tcpPassiveOpens", "tcpAttemptFails",
	"tcpEstabResets", "tcpCurrEstab", "tcpInSegs", "tcpOutSegs",
	"tcpRetransSegs",
	"ifNumbers", "ifIndex", "ifDescr", "ifType", "ifMtu", "ifSpeed",
	"ifInOctets", "ifInUcastPkts", "ifInNUcastPkts", "ifInDiscards",
	"ifInErrors", "ifInUnknownProtos", "ifOutOctets", "ifOutUcastPkts",
	"ifOutNUcastPkts", "ifOutDiscards", "ifOutErrors", "ifOutQLen",
}

// ExtraVariables are the additional measures of thesis Table 6.2.
var ExtraVariables = []string{
	"netLatency", "avgInIPPkts", "cpuLoadAvg", "ethErrsAvg", "ethInAvg",
	"ethOutAvg", "deviceList", "bytes_rx", "bytes_tx",
}

// linkVariables are the per-interface link-shaping variables, indexed
// by interface number like the if* tables. They read the *transmit*
// direction — the one the host pushes traffic into, which is where
// blockage bites. link.bw and link.delay_ms read the live shaping (a
// trace segment shows the moment it is applied);
// link.delivery_bps is a windowed delivered-bits rate — the
// ground-truth throughput signal a blockage rule fires on even when
// the configured bandwidth alone cannot tell LoS from NLoS.
var linkVariables = []string{
	"link.bw", "link.delay_ms", "link.queue", "link.peak_queue",
	"link.down", "link.delivery_bps",
}

// linkDeliveryWindow is the minimum width of a link.delivery_bps
// window: blockage dwells are short, and the policy loop must see the
// collapse within a dwell or two.
const linkDeliveryWindow = 500 * time.Millisecond

// NodeSource serves the Table 6.1/6.2 variables and the link.* set from
// a simulated host's counters — the stand-in for the local SNMP daemon
// the thesis used. Variables with no simulator analogue return zero
// values, which keeps the full SNMP surface available to clients.
type NodeSource struct {
	Node *netsim.Node
	// TCP, when set, supplies the MIB-II tcp group (tcpActiveOpens,
	// tcpCurrEstab, tcpRetransSegs, ...) from the host's TCP stack.
	TCP *tcp.Stack

	rates    Window // the Table 6.2 averages, no minimum width
	delivery Window // link.delivery_bps, linkDeliveryWindow wide
}

// rate returns the per-second rate of counter cur for (name, index).
func (s *NodeSource) rate(name string, index int, cur int64) float64 {
	return s.rates.Roll(s.Node.Clock().Now(), name, index, cur, 0, perSecond)
}

// Variables implements Source.
func (s *NodeSource) Variables() []string {
	out := make([]string, 0, len(SNMPVariables)+len(ExtraVariables)+len(linkVariables))
	out = append(out, SNMPVariables...)
	out = append(out, ExtraVariables...)
	out = append(out, linkVariables...)
	sort.Strings(out)
	return out
}

// Get implements Source.
func (s *NodeSource) Get(name string, index int) (Value, error) {
	n := s.Node
	st := &n.Stats
	switch name {
	case "sysDescr":
		return StringValue("comma simulated host " + n.Name()), nil
	case "sysName":
		return StringValue(n.Name()), nil
	case "sysUpTime":
		// SNMP TimeTicks: hundredths of a second.
		return LongValue(int64(time.Duration(n.Clock().Now()) / (10 * time.Millisecond))), nil
	case "sysContact", "sysLocation", "sysObjectID":
		return StringValue(""), nil
	case "sysServices":
		if n.Forwarding {
			return LongValue(3), nil // internetwork
		}
		return LongValue(72), nil // host
	case "ipInReceives":
		return LongValue(st.IPInReceives), nil
	case "ipInHdrErrors":
		return LongValue(st.IPInHdrErrors), nil
	case "ipInAddrErrors":
		return LongValue(st.IPInAddrErrors), nil
	case "ipForwDatagrams":
		return LongValue(st.IPForwDatagrams), nil
	case "ipInUnknownProtos":
		return LongValue(st.IPInUnknownProtos), nil
	case "ipInDelivers":
		return LongValue(st.IPInDelivers), nil
	case "ipOutRequests":
		return LongValue(st.IPOutRequests), nil
	case "ipOutNoRoutes":
		return LongValue(st.IPOutNoRoutes), nil
	case "ifNumbers":
		return LongValue(int64(len(n.Ifaces()))), nil
	case "ifIndex":
		return LongValue(int64(index)), nil
	case "ifDescr":
		if f := s.iface(index); f != nil {
			return StringValue(fmt.Sprintf("if%d(%v)", index, f.Addr())), nil
		}
		return Value{}, fmt.Errorf("eem: no interface %d", index)
	case "ifMtu":
		return LongValue(1500), nil
	case "ifSpeed", "link.bw", "link.delay_ms", "link.queue", "link.peak_queue",
		"link.down", "link.delivery_bps":
		return s.link(name, index)
	case "ifInOctets", "bytes_rx":
		return LongValue(s.octets(index, false)), nil
	case "ifOutOctets", "bytes_tx":
		return LongValue(s.octets(index, true)), nil
	case "ifInUcastPkts":
		return LongValue(s.pkts(index, false)), nil
	case "ifOutUcastPkts":
		return LongValue(s.pkts(index, true)), nil
	case "ethInAvg":
		return DoubleValue(s.rate(name, index, s.pkts(index, false))), nil
	case "ethOutAvg":
		return DoubleValue(s.rate(name, index, s.pkts(index, true))), nil
	case "ethErrsAvg":
		return DoubleValue(s.rate(name, index, st.IPInHdrErrors)), nil
	case "avgInIPPkts":
		return DoubleValue(s.rate(name, index, st.IPInReceives)), nil
	case "ifOutQLen":
		return LongValue(0), nil
	case "tcpRtoAlgorithm":
		return LongValue(4), nil // vanj (Van Jacobson)
	case "tcpRtoMin":
		return LongValue(tcp.MinRTO.Milliseconds()), nil
	case "tcpRtoMax":
		return LongValue(tcp.MaxRTO.Milliseconds()), nil
	case "tcpMaxConn":
		return LongValue(-1), nil // no fixed limit
	case "tcpActiveOpens", "tcpPassiveOpens", "tcpAttemptFails",
		"tcpEstabResets", "tcpCurrEstab", "tcpInSegs", "tcpOutSegs",
		"tcpRetransSegs":
		if s.TCP == nil {
			return LongValue(0), nil
		}
		m := s.TCP.MIB()
		switch name {
		case "tcpActiveOpens":
			return LongValue(m.ActiveOpens), nil
		case "tcpPassiveOpens":
			return LongValue(m.PassiveOpens), nil
		case "tcpAttemptFails":
			return LongValue(m.AttemptFails), nil
		case "tcpEstabResets":
			return LongValue(m.EstabResets), nil
		case "tcpCurrEstab":
			return LongValue(int64(s.TCP.CurrEstab())), nil
		case "tcpInSegs":
			return LongValue(m.InSegs), nil
		case "tcpOutSegs":
			return LongValue(m.OutSegs), nil
		default:
			return LongValue(m.RetransSegs), nil
		}
	case "netLatency", "cpuLoadAvg":
		return DoubleValue(0), nil // no simulator analogue; a double, as a measurement would be
	case "deviceList":
		var names []string
		for i := range n.Ifaces() {
			names = append(names, fmt.Sprintf("if%d", i))
		}
		return StringValue(strings.Join(names, ",")), nil
	default:
		for _, v := range SNMPVariables {
			if v == name {
				return LongValue(0), nil // no simulator analogue
			}
		}
		for _, v := range ExtraVariables {
			if v == name {
				return LongValue(0), nil
			}
		}
		return Value{}, wrapKind(ErrUnknownVar, fmt.Sprintf("eem: unknown variable %q", name))
	}
}

func (s *NodeSource) iface(index int) *netsim.Iface {
	ifs := s.Node.Ifaces()
	if index < 0 || index >= len(ifs) {
		return nil
	}
	return ifs[index]
}

func (s *NodeSource) octets(index int, out bool) int64 {
	f := s.iface(index)
	if f == nil || f.Link() == nil {
		return 0
	}
	st := dirStats(f, out)
	return st.Bytes
}

func (s *NodeSource) pkts(index int, out bool) int64 {
	f := s.iface(index)
	if f == nil || f.Link() == nil {
		return 0
	}
	st := dirStats(f, out)
	return st.Packets
}

// dirStats returns the stats for traffic leaving (out) or entering
// (!out) the interface.
func dirStats(f *netsim.Iface, out bool) netsim.LinkStats {
	l := f.Link()
	aSide := l.IfaceA() == f
	if aSide == out {
		return l.StatsAB()
	}
	return l.StatsBA()
}

// link serves ifSpeed and linkVariables from the interface's
// transmit direction.
func (s *NodeSource) link(name string, index int) (Value, error) {
	f := s.iface(index)
	if f == nil || f.Link() == nil {
		return Value{}, fmt.Errorf("eem: no interface %d", index)
	}
	l := f.Link()
	cfg, st, queued, down := l.ConfigBA(), l.StatsBA(), l.QueuedBA(), l.DownBA()
	if l.IfaceA() == f {
		cfg, st, queued, down = l.ConfigAB(), l.StatsAB(), l.QueuedAB(), l.DownAB()
	}
	switch name {
	case "ifSpeed", "link.bw":
		return LongValue(cfg.Bandwidth), nil
	case "link.delay_ms":
		return DoubleValue(float64(cfg.Delay) / float64(time.Millisecond)), nil
	case "link.queue":
		return LongValue(int64(queued)), nil
	case "link.peak_queue":
		return LongValue(int64(st.PeakQueue)), nil
	case "link.down":
		if down {
			return LongValue(1), nil
		}
		return LongValue(0), nil
	default: // link.delivery_bps
		s.delivery.Min = linkDeliveryWindow // a zero NodeSource is ready to serve
		return DoubleValue(s.delivery.Roll(s.Node.Clock().Now(), name, index, st.DeliveredBytes, 0,
			func(dt time.Duration, da, _ int64) float64 { return float64(da) * 8 / dt.Seconds() })), nil
	}
}
