// Package core assembles the Comma system of the thesis — Service
// Proxy, Execution-Environment Monitor, filter catalogue, and control
// ports — on a simulated wired/wireless topology. It is the public
// entry point: examples, the experiment driver, and the daemons build
// deployments through this package instead of wiring the substrates by
// hand.
//
// The reference topology (thesis Fig 4.1):
//
//	wired host ──(wire)── proxy host ──(wireless)── mobile host
//	                        │
//	                        ├ Service Proxy  (control on TCP :12000)
//	                        └ EEM server     (control on TCP :12001)
//
// Config.Topology picks the shape, one value per shape in use. Every
// Service Proxy in a deployment is a Site — host node, one proxy,
// control stack, migration manager and policy engine — built by one
// constructor; a System embeds its primary Site and, in the
// double-proxy shape (thesis §10.2.4: a second proxy on the far side
// of the wireless link, which is how the transparent compression
// service is deployed end-to-end), carries the other as Peer. A
// Site's facilities beyond its proxy are armed after NewSystem, each
// by one System method: ArmPolicy, ArmRelay and ArmMigration.
package core

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/eem"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/itcp"
	"repro/internal/migrate"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// Well-known addresses of the reference topology.
var (
	WiredAddr     = ip.MustParseAddr("11.11.10.99")
	MobileAddr    = ip.MustParseAddr("11.11.10.10")
	ProxyCtrlAddr = ip.MustParseAddr("11.11.10.1") // SP/EEM control address
	UserAddr      = ip.MustParseAddr("11.11.9.2")  // Kati workstation
)

// Topology names the shape of a deployment. The shapes are exclusive by
// construction: a System has exactly one.
type Topology int

const (
	// TopoReference is thesis Fig 4.1: wired host, one proxy host, mobile.
	TopoReference Topology = iota
	// TopoKati is the reference shape plus a Kati workstation node
	// (System.User, System.UserTCP) wired to the proxy host.
	TopoKati
	// TopoDouble puts a second Service Proxy (System.Peer) on the far
	// side of the wireless link, wired to the mobile (thesis §10.2.4).
	TopoDouble
	// TopoMMWaveLTE is the 5G dual-connectivity shape: the wireless link
	// becomes the mmWave leg and a second, steadier LTE leg
	// (Config.LTE, System.LTELink) connects proxy host and mobile in
	// parallel. The mmWave leg is preferred while administratively up;
	// the "mmwave shed on|off" SP command (drivable from a policy rule
	// via the command action) switches both ends to the LTE leg and
	// back.
	TopoMMWaveLTE
)

// Config shapes a System. Zero values give the reference topology with
// a 2 Mb/s, 10 ms, lossless wireless link and default TCP parameters.
type Config struct {
	Seed        int64
	Topology    Topology
	Wireless    netsim.LinkConfig
	Wire        netsim.LinkConfig
	TCP         tcp.Config
	EEMInterval time.Duration
	// ObsRetention bounds the observability event ring
	// (obs.DefaultRetention when 0).
	ObsRetention int
	// LTE shapes the LTE leg of TopoMMWaveLTE; zero values give a
	// 12 Mb/s, 25 ms link — an order of magnitude below a healthy
	// mmWave leg but immune to its blockage dynamics.
	LTE netsim.LinkConfig
}

// PolicyConfig configures the adaptive policy engine ArmPolicy starts.
type PolicyConfig struct {
	// Period is the engine's sampling tick (policy.DefaultPeriod when 0).
	Period time.Duration
	// Rules are parsed by policy.ParseRule; ArmPolicy returns the first
	// bad rule's error.
	Rules []string
}

// Site is one Service Proxy in place on the network.
type Site struct {
	ProxyHost *netsim.Node
	// Catalog is the filter catalogue the site's proxy loads from.
	Catalog *filter.Catalog
	// Proxy is the site's one Service Proxy, installed as the host's
	// packet hook; SP commands go through its Exec.
	Proxy *proxy.Proxy
	// Ctrl terminates TCP on the proxy host: SP and EEM control on the
	// primary, the migration protocol and relayed connections on
	// either. Nil on a peer until ArmMigration or ArmRelay gives it one
	// — nothing else is addressed to it.
	Ctrl *tcp.Stack
	// Migrate is the site's migration manager; nil until ArmMigration.
	Migrate *migrate.Manager
	// Policy is the site's adaptive engine; nil until ArmPolicy.
	Policy *policy.Engine

	tag string // "" on the primary, "B" on the peer: suffix of node and metric names
}

// System is a running Comma deployment. It embeds its primary Site, so
// sys.Proxy, sys.MustCommand … address the proxy of the
// reference topology in every shape.
type System struct {
	Sched *sim.Scheduler
	Net   *netsim.Network

	*Site
	// Peer is the proxy on the far side of the wireless link; nil unless
	// TopoDouble.
	Peer *Site

	Wired, Mobile *netsim.Node
	User          *netsim.Node // nil unless TopoKati

	EEM *eem.Server // on the primary proxy host

	WiredTCP, MobileTCP *tcp.Stack
	WiredUDP, MobileUDP *udp.Stack
	UserTCP             *tcp.Stack // nil unless TopoKati

	Wireless *netsim.Link
	// LTELink is the parallel LTE leg; nil unless TopoMMWaveLTE.
	LTELink *netsim.Link

	// Obs is the deployment-wide event bus; Metrics the unified
	// counter/gauge registry (rendered by the SP "stats" command).
	Obs     *obs.Bus
	Metrics *obs.Registry
}

// NewSystem builds and starts a Comma deployment.
func NewSystem(cfg Config) *System {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Wireless.Bandwidth == 0 {
		cfg.Wireless.Bandwidth = 2e6
	}
	if cfg.Wireless.Delay == 0 {
		cfg.Wireless.Delay = 10 * time.Millisecond
	}
	if cfg.Wire.Bandwidth == 0 {
		cfg.Wire.Bandwidth = 100e6
	}
	if cfg.Wire.Delay == 0 {
		cfg.Wire.Delay = 2 * time.Millisecond
	}
	if cfg.EEMInterval == 0 {
		cfg.EEMInterval = eem.DefaultUpdateInterval
	}

	s := sim.NewScheduler(cfg.Seed)
	n := netsim.New(s)
	sys := &System{Sched: s, Net: n}

	// Observability: one bus and one registry for the whole deployment.
	sys.Obs = obs.NewBus(s, cfg.ObsRetention)
	sys.Metrics = obs.NewRegistry()
	n.SetObs(sys.Obs)

	sys.Wired = n.AddNode("wired")
	sys.Site = sys.newSite("")
	sys.addCtrl(sys.Site, cfg.TCP)
	sys.Mobile = n.AddNode("mobile")

	lw := n.Connect(sys.Wired, WiredAddr, sys.ProxyHost, ProxyCtrlAddr, cfg.Wire)
	sys.Wired.AddDefaultRoute(lw.IfaceA())
	lw.RegisterMetrics(sys.Metrics, "link.wire")

	// Everything past the wire is the topology's. Node and link order
	// inside a case is part of the output: interface indices are EEM
	// variable indices, and first-added wins a route-prefix tie.
	switch cfg.Topology {
	case TopoReference:
		sys.connectMobile(cfg.Wireless)
	case TopoKati:
		sys.connectMobile(cfg.Wireless)
		sys.User = n.AddNode("user")
		lu := n.Connect(sys.User, UserAddr, sys.ProxyHost, ip.MustParseAddr("11.11.9.1"), cfg.Wire)
		sys.User.AddDefaultRoute(lu.IfaceA())
		sys.ProxyHost.AddRoute(UserAddr.Mask(24), 24, lu.IfaceB())
		sys.UserTCP = tcp.NewStack(sys.User, cfg.TCP)
		registerStacks(sys.User, sys.UserTCP, nil)
		sys.UserTCP.RegisterMetrics(sys.Metrics, "tcp.user")
	case TopoMMWaveLTE:
		sys.connectMobile(cfg.Wireless)
		if cfg.LTE.Bandwidth == 0 {
			cfg.LTE.Bandwidth = 12e6
		}
		if cfg.LTE.Delay == 0 {
			cfg.LTE.Delay = 25 * time.Millisecond
		}
		// The LTE leg rides in parallel. Both ends install their LTE
		// routes *after* the mmWave ones, so the mmWave leg wins
		// while administratively up (first-added wins prefix ties;
		// the proxy's implicit connected route to the mobile only
		// matches a leg whose transmit direction is up) and routing
		// falls back to LTE the moment the mmWave leg is shed.
		lte := n.Connect(sys.ProxyHost, ip.MustParseAddr("11.11.13.1"),
			sys.Mobile, ip.MustParseAddr("11.11.13.2"), cfg.LTE)
		sys.LTELink = lte
		sys.ProxyHost.AddRoute(MobileAddr.Mask(32), 32, lte.IfaceA())
		sys.Mobile.AddDefaultRoute(lte.IfaceB())
		lte.RegisterMetrics(sys.Metrics, "link.lte")
		sys.Proxy.RegisterCommand("mmwave", sys.mmwaveCommand)
	case TopoDouble:
		sys.connectPeer(cfg)
	default:
		panic(fmt.Sprintf("core: unknown Topology %d", cfg.Topology))
	}
	sys.Wireless.RegisterMetrics(sys.Metrics, "link.wireless")

	// Data-plane stacks.
	sys.WiredTCP = tcp.NewStack(sys.Wired, cfg.TCP)
	sys.MobileTCP = tcp.NewStack(sys.Mobile, cfg.TCP)
	sys.WiredUDP = udp.NewStack(sys.Wired)
	sys.MobileUDP = udp.NewStack(sys.Mobile)
	registerStacks(sys.Wired, sys.WiredTCP, sys.WiredUDP)
	registerStacks(sys.Mobile, sys.MobileTCP, sys.MobileUDP)
	sys.WiredTCP.RegisterMetrics(sys.Metrics, "tcp.wired")
	sys.MobileTCP.RegisterMetrics(sys.Metrics, "tcp.mobile")
	sys.Wired.RegisterMetrics(sys.Metrics, "node.wired")
	sys.ProxyHost.RegisterMetrics(sys.Metrics, "node.proxy")
	sys.Mobile.RegisterMetrics(sys.Metrics, "node.mobile")

	// Control plane on the primary proxy host: SP command port and EEM
	// server.
	if err := proxy.ServeControl(sys.Ctrl, proxy.ControlPort, sys.Proxy.Exec); err != nil {
		panic(fmt.Sprintf("core: control port: %v", err))
	}
	sys.EEM = eem.NewServer("proxy")
	sys.EEM.Interval = cfg.EEMInterval
	sys.EEM.SetObs(sys.Obs)
	sys.EEM.RegisterMetrics(sys.Metrics, "eem")
	// The host's variables: SNMP, Table 6.2 and per-interface link.*
	// (link.bw, link.delivery_bps, ... — the blockage signal the mmWave
	// policy rules fire on), plus traffic-derived variables from the
	// flow-log analytics plane, so policy rules can react to what the
	// streams are doing (retrans ratio, zero-window rate), not just
	// what the links report.
	sys.EEM.AddSource(&eem.NodeSource{Node: sys.ProxyHost, TCP: sys.Ctrl})
	sys.EEM.AddSource(newFlowVarSource(s, sys.Proxy))
	// Adaptive filters read the same table through their Env (thesis
	// ch. 6: filters are EEM clients too).
	sys.Proxy.SetMetricSource(func(name string, index int) (float64, bool) {
		v, err := sys.EEM.Get(name, index)
		if err != nil {
			return 0, false
		}
		return v.Float()
	})
	if err := eem.ServeSim(sys.Ctrl, eem.DefaultPort, sys.EEM); err != nil {
		panic(fmt.Sprintf("core: eem port: %v", err))
	}
	sys.EEM.StartSimTicker(s)
	return sys
}

// The two ends of the wireless link when a proxy sits on each.
var (
	proxyWirelessAddr = ip.MustParseAddr("11.11.11.1")
	peerWirelessAddr  = ip.MustParseAddr("11.11.11.2")
)

// newSite is the one place a Service Proxy is put on the network: a
// forwarding host node "proxy"+tag with its own filter catalogue and
// one proxy hooked on it, reporting to the deployment's bus and
// registry.
func (s *System) newSite(tag string) *Site {
	st := &Site{tag: tag, ProxyHost: s.Net.AddNode("proxy" + tag), Catalog: filter.NewCatalog()}
	st.ProxyHost.Forwarding = true
	filters.RegisterAll(st.Catalog)
	st.Proxy = proxy.New(st.ProxyHost, st.Catalog)
	st.Proxy.SetObs(s.Obs, s.Metrics)
	st.Proxy.RegisterMetrics(s.Metrics, "proxy"+tag)
	return st
}

// addCtrl gives st a TCP stack terminating what is addressed to its
// host, counted under "tcp.proxyctrl"+tag.
func (s *System) addCtrl(st *Site, cfg tcp.Config) {
	st.Ctrl = tcp.NewStack(st.ProxyHost, cfg)
	registerStacks(st.ProxyHost, st.Ctrl, nil)
	st.Ctrl.RegisterMetrics(s.Metrics, "tcp.proxyctrl"+st.tag)
}

// connectMobile hangs the mobile off the primary proxy host over the
// wireless link: the single-proxy shapes.
func (s *System) connectMobile(wireless netsim.LinkConfig) {
	s.Wireless = s.Net.Connect(s.ProxyHost, proxyWirelessAddr, s.Mobile, MobileAddr, wireless)
	s.ProxyHost.AddRoute(MobileAddr.Mask(32), 32, s.Wireless.IfaceA())
	s.Mobile.AddDefaultRoute(s.Wireless.IfaceB())
}

// connectPeer puts the second proxy between the wireless link and the
// mobile: the double-proxy shape.
func (s *System) connectPeer(cfg Config) {
	s.Peer = s.newSite("B")
	peer := s.Peer.ProxyHost
	s.Wireless = s.Net.Connect(s.ProxyHost, proxyWirelessAddr, peer, peerWirelessAddr, cfg.Wireless)
	lm := s.Net.Connect(peer, ip.MustParseAddr("11.11.12.1"), s.Mobile, MobileAddr, cfg.Wire)
	s.ProxyHost.AddRoute(MobileAddr.Mask(32), 32, s.Wireless.IfaceA())
	peer.AddDefaultRoute(s.Wireless.IfaceB())
	peer.AddRoute(MobileAddr.Mask(32), 32, lm.IfaceA())
	s.Mobile.AddDefaultRoute(lm.IfaceB())
}

// ArmMigration arms live stream migration between the two Sites of a
// TopoDouble deployment: each gets a migration manager (IDs 1 and 2)
// speaking the two-phase transfer protocol on migrate.Port of its
// control stack, counted under "migrate"+tag and reachable as its
// "migrate" SP command. The peer gets a control stack with the
// deployment's TCP configuration, and the primary a /32 route to the
// peer's wireless address (it has only keyed routes toward the
// mobile; the peer's default route covers the way back). It panics
// without a Peer.
func (s *System) ArmMigration() {
	if s.Peer == nil {
		panic("core: ArmMigration needs a Peer (TopoDouble)")
	}
	if s.Peer.Ctrl == nil {
		s.addCtrl(s.Peer, s.WiredTCP.Config())
	}
	s.ProxyHost.AddRoute(peerWirelessAddr.Mask(32), 32, s.Wireless.IfaceA())
	for id, st := range []*Site{s.Site, s.Peer} {
		st.Migrate = migrate.NewManager(migrate.Config{
			Name: "migrate" + st.tag, ID: uint8(id + 1), Sched: s.Sched,
			Proxy: st.Proxy, Stack: st.Ctrl, Bus: s.Obs,
		})
		if err := st.Migrate.Serve(); err != nil {
			panic(fmt.Sprintf("core: migrate port (proxy%s): %v", st.tag, err))
		}
		st.Migrate.RegisterMetrics(s.Metrics, "migrate"+st.tag)
		st.Proxy.RegisterCommand("migrate", st.Migrate.Command)
	}
}

// ArmPolicy starts an adaptive policy engine with st's proxy as its
// control surface, counted under "policy"+tag and reachable as the
// site's "policy" SP command (so Kati's `policy` reaches it like any
// other; a site without an engine keeps its command surface and help
// text unchanged). Every engine is an EEM client of the primary proxy
// host — whose interface 1 is the shared wireless link — dialling from
// the wired host: the simulator has no loopback path, so a proxy host
// cannot dial itself. Rules are parsed by policy.ParseRule.
func (s *System) ArmPolicy(st *Site, pc PolicyConfig) error {
	cm := eem.NewComma(eem.SimDialer(s.WiredTCP))
	cm.UseScheduler(s.Sched)
	cm.SetObs(s.Obs)
	st.Policy = policy.New(policy.Config{
		Sched:   s.Sched,
		Comma:   cm,
		Control: st.Proxy,
		Server:  ProxyCtrlAddr.String(),
		Bus:     s.Obs,
		Period:  pc.Period,
	})
	st.Policy.RegisterMetrics(s.Metrics, "policy"+st.tag)
	for _, spec := range pc.Rules {
		if err := st.Policy.AddRule(spec); err != nil {
			return err
		}
	}
	st.Proxy.RegisterCommand("policy", st.Policy.Command)
	st.Policy.Start()
	return nil
}

// ArmRelay puts an I-TCP relay (thesis §3.2, the split-connection
// comparator) in front of st's proxy: connections from the wired
// side to the mobile on ports are terminated at st's host and
// re-originated from its control stack, while every other packet still
// reaches the proxy and the host's own ports (SP, EEM, migration). A
// site without a control stack gets one with the deployment's TCP
// configuration.
func (s *System) ArmRelay(st *Site, ports ...uint16) *itcp.Relay {
	if st.Ctrl == nil {
		s.addCtrl(st, s.WiredTCP.Config())
	}
	r, err := itcp.New(st.ProxyHost, st.Ctrl, MobileAddr, ports)
	if err != nil {
		panic(fmt.Sprintf("core: relay (proxy%s): %v", st.tag, err))
	}
	return r
}

func registerStacks(node *netsim.Node, t *tcp.Stack, u *udp.Stack) {
	node.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		t.Deliver(h.Src, h.Dst, p)
	})
	if u != nil {
		node.RegisterProto(ip.ProtoUDP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
			u.Deliver(h.Src, h.Dst, p)
		})
	}
}

// MustCommand runs an SP command on the site's proxy and panics on an
// error response (setup helper for examples and experiments).
func (st *Site) MustCommand(line string) string {
	out := st.Proxy.Exec(line)
	if strings.HasPrefix(out, "error") {
		panic(fmt.Sprintf("core: proxy%s command %q: %s", st.tag, line, out))
	}
	return out
}

// TransferResult reports a bulk transfer driven by Transfer.
type TransferResult struct {
	Sent int
	// Received is exactly the bytes the mobile application got. While
	// they match the payload they are not copied: Received is then a
	// prefix of the payload slice itself, sharing its backing array, so
	// the caller must not modify either while it uses the other. Once a
	// byte differs (a filter dropped or rewrote data) Received is a
	// separate buffer and the payload is left as it was.
	Received  []byte
	Client    *tcp.Conn
	Elapsed   time.Duration
	Completed bool // all bytes delivered to the mobile application
}

// Transfer pushes payload from the wired host to the mobile on dstPort
// and runs the simulation until delivery completes or deadline
// elapses. The mobile side echoes nothing; it just consumes.
func (s *System) Transfer(payload []byte, srcPort, dstPort uint16, deadline time.Duration) (*TransferResult, error) {
	res := &TransferResult{Sent: len(payload)}
	start := s.Sched.Now()
	var done sim.Time = -1
	intact := true // Received is still a prefix of payload
	_, err := s.MobileTCP.Listen(dstPort, func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			n := len(res.Received)
			if intact && n+len(b) <= len(payload) && bytes.Equal(b, payload[n:n+len(b)]) {
				res.Received = payload[: n+len(b) : n+len(b)]
			} else {
				if intact {
					// First divergence: the matched prefix moves into a
					// buffer of its own, sized for a full-length leg.
					intact = false
					res.Received = append(make([]byte, 0, max(len(payload), n+len(b))), res.Received...)
				}
				res.Received = append(res.Received, b...)
			}
			if len(res.Received) == len(payload) {
				done = s.Sched.Now()
			}
		}
		c.OnRemoteClose = func() { c.Close() }
	})
	if err != nil {
		return nil, err
	}
	client, err := s.WiredTCP.ConnectFrom(srcPort, MobileAddr, dstPort)
	if err != nil {
		return nil, err
	}
	res.Client = client
	client.OnEstablished = func() {
		client.Write(payload)
		client.Close()
	}
	s.Sched.RunFor(deadline)
	if done >= 0 {
		res.Completed = true
		res.Elapsed = done.Sub(start)
	} else {
		res.Elapsed = s.Sched.Now().Sub(start)
	}
	return res, nil
}

// CheckedTransfer is Transfer plus the checks every scenario leg makes:
// the error names what (e.g. "adapt: leg baseline") unless the
// transfer completed with exactly the payload's bytes and the sender
// was never acknowledged past what it sent (tcp.Stats.AcksAboveSndMax:
// a transparent proxy's ACK translation never overshoots). The result
// is nil only when the transfer could not start, so a caller can still
// print the leg before failing on a corrupt or incomplete one.
func (s *System) CheckedTransfer(what string, payload []byte, srcPort, dstPort uint16, deadline time.Duration) (*TransferResult, error) {
	res, err := s.Transfer(payload, srcPort, dstPort, deadline)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if !res.Completed || !bytes.Equal(res.Received, payload) {
		err = fmt.Errorf("%s corrupt or incomplete: completed=%v received=%d/%d",
			what, res.Completed, len(res.Received), res.Sent)
	} else if n := res.Client.Stats().AcksAboveSndMax; n > 0 {
		err = fmt.Errorf("%s: the sender got %d ACKs above anything it sent", what, n)
	}
	return res, err
}
