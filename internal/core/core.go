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
// With Config.DoubleProxy a second proxy sits on the far side of the
// wireless link (thesis §10.2.4), which is how the transparent
// compression service is deployed end-to-end.
package core

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/dataplane"
	"repro/internal/eem"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
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

// Config shapes a System. Zero values give a 2 Mb/s, 10 ms, lossless
// wireless link and default TCP parameters.
type Config struct {
	Seed        int64
	Wireless    netsim.LinkConfig
	Wire        netsim.LinkConfig
	TCP         tcp.Config
	DoubleProxy bool
	// Shards is the data-plane shard count (0 or 1 = the classic
	// single interception loop, byte-for-byte deterministic; N>1
	// partitions proxy state by flow-steering hash, still inline and
	// deterministic inside the simulator).
	Shards      int
	EEMInterval time.Duration
	// WithUser adds a Kati workstation node wired to the proxy.
	WithUser bool
	// ObsRetention bounds the observability event ring
	// (obs.DefaultRetention when 0).
	ObsRetention int
	// Policy, when it carries rules, arms an adaptive policy engine
	// against the A-side data plane (thesis ch. 7: the control loop
	// that loads services in response to EEM conditions).
	Policy PolicyConfig
	// Migration arms live stream migration between the two service
	// proxies: a migration manager on each proxy host speaks the
	// two-phase transfer protocol on migrate.Port and the "migrate"
	// command appears on both SPs. Requires DoubleProxy.
	Migration bool
	// MMWave arms the 5G dual-connectivity topology: the wireless link
	// becomes the mmWave leg and a second, steadier LTE leg (LTE config)
	// connects proxy host and mobile in parallel. The mmWave leg is
	// preferred while administratively up; the "mmwave shed on|off" SP
	// command (drivable from a policy rule via the command action)
	// switches both ends to the LTE leg and back. Mutually exclusive
	// with DoubleProxy.
	MMWave bool
	// LTE shapes the LTE leg under MMWave; zero values give a
	// 12 Mb/s, 25 ms link — an order of magnitude below a healthy
	// mmWave leg but immune to its blockage dynamics.
	LTE netsim.LinkConfig
}

// PolicyConfig configures the optional adaptive policy engine.
type PolicyConfig struct {
	// Period is the engine's sampling tick (policy.DefaultPeriod when 0).
	Period time.Duration
	// Rules are parsed by policy.ParseRule; a bad rule panics NewSystem.
	Rules []string
}

// System is a running Comma deployment.
type System struct {
	Sched *sim.Scheduler
	Net   *netsim.Network

	Wired, Mobile *netsim.Node
	ProxyHost     *netsim.Node
	ProxyHostB    *netsim.Node // nil unless DoubleProxy
	User          *netsim.Node // nil unless WithUser

	Proxy  *proxy.Proxy // shard 0 of Plane
	ProxyB *proxy.Proxy // nil unless DoubleProxy; shard 0 of PlaneB
	EEM    *eem.Server

	// Plane is the sharded data plane owning the proxy host's packet
	// hook; commands go through it so mutations reach every shard.
	Plane  *dataplane.Plane
	PlaneB *dataplane.Plane // nil unless DoubleProxy

	WiredTCP, MobileTCP *tcp.Stack
	WiredUDP, MobileUDP *udp.Stack
	UserTCP             *tcp.Stack // nil unless WithUser

	Wireless *netsim.Link
	// LTELink is the parallel LTE leg; nil unless Config.MMWave.
	LTELink *netsim.Link
	Catalog *filter.Catalog

	// Obs is the deployment-wide event bus; Metrics the unified
	// counter/gauge registry (rendered by the SP "stats" command).
	Obs     *obs.Bus
	Metrics *obs.Registry

	// Policy is the adaptive engine; nil unless Config.Policy has rules.
	Policy *policy.Engine

	// Migrate and MigrateB are the per-SP migration managers; nil
	// unless Config.Migration.
	Migrate  *migrate.Manager
	MigrateB *migrate.Manager
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
	if cfg.MMWave {
		if cfg.DoubleProxy {
			panic("core: MMWave is mutually exclusive with DoubleProxy")
		}
		if cfg.LTE.Bandwidth == 0 {
			cfg.LTE.Bandwidth = 12e6
		}
		if cfg.LTE.Delay == 0 {
			cfg.LTE.Delay = 25 * time.Millisecond
		}
	}

	s := sim.NewScheduler(cfg.Seed)
	n := netsim.New(s)
	sys := &System{Sched: s, Net: n}

	// Observability: one bus and one registry for the whole deployment.
	sys.Obs = obs.NewBus(s, cfg.ObsRetention)
	sys.Metrics = obs.NewRegistry()
	n.SetObs(sys.Obs)

	sys.Wired = n.AddNode("wired")
	sys.ProxyHost = n.AddNode("proxy")
	sys.ProxyHost.Forwarding = true
	sys.Mobile = n.AddNode("mobile")

	lw := n.Connect(sys.Wired, WiredAddr, sys.ProxyHost, ProxyCtrlAddr, cfg.Wire)
	sys.Wired.AddDefaultRoute(lw.IfaceA())
	lw.RegisterMetrics(sys.Metrics, "link.wire")

	sys.Catalog = filter.NewCatalog()
	filters.RegisterAll(sys.Catalog)
	sys.Plane = dataplane.NewInline(sys.ProxyHost, sys.Catalog, cfg.Shards)
	sys.Proxy = sys.Plane.Shard(0)
	sys.Plane.SetObs(sys.Obs, sys.Metrics)
	sys.Plane.RegisterMetrics(sys.Metrics, "proxy")

	if cfg.DoubleProxy {
		sys.ProxyHostB = n.AddNode("proxyB")
		sys.ProxyHostB.Forwarding = true
		wless := n.Connect(sys.ProxyHost, ip.MustParseAddr("11.11.11.1"),
			sys.ProxyHostB, ip.MustParseAddr("11.11.11.2"), cfg.Wireless)
		sys.Wireless = wless
		lm := n.Connect(sys.ProxyHostB, ip.MustParseAddr("11.11.12.1"), sys.Mobile, MobileAddr, cfg.Wire)
		sys.ProxyHost.AddRoute(MobileAddr.Mask(32), 32, wless.IfaceA())
		sys.ProxyHostB.AddDefaultRoute(wless.IfaceB())
		sys.ProxyHostB.AddRoute(MobileAddr.Mask(32), 32, lm.IfaceA())
		sys.Mobile.AddDefaultRoute(lm.IfaceB())
		catB := filter.NewCatalog()
		filters.RegisterAll(catB)
		sys.PlaneB = dataplane.NewInline(sys.ProxyHostB, catB, cfg.Shards)
		sys.ProxyB = sys.PlaneB.Shard(0)
		sys.PlaneB.SetObs(sys.Obs, sys.Metrics)
		sys.PlaneB.RegisterMetrics(sys.Metrics, "proxyB")
	} else {
		wless := n.Connect(sys.ProxyHost, ip.MustParseAddr("11.11.11.1"), sys.Mobile, MobileAddr, cfg.Wireless)
		sys.Wireless = wless
		sys.ProxyHost.AddRoute(MobileAddr.Mask(32), 32, wless.IfaceA())
		sys.Mobile.AddDefaultRoute(wless.IfaceB())
		if cfg.MMWave {
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
		}
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

	// Control plane on the proxy host: SP command port and EEM server.
	ctrl := tcp.NewStack(sys.ProxyHost, cfg.TCP)
	sys.ProxyHost.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		ctrl.Deliver(h.Src, h.Dst, p)
	})
	if err := proxy.ServeControl(ctrl, proxy.ControlPort, sys.Plane); err != nil {
		panic(fmt.Sprintf("core: control port: %v", err))
	}
	ctrl.RegisterMetrics(sys.Metrics, "tcp.proxyctrl")
	sys.EEM = eem.NewServer("proxy")
	sys.EEM.Interval = cfg.EEMInterval
	sys.EEM.SetObs(sys.Obs)
	sys.EEM.RegisterMetrics(sys.Metrics, "eem")
	nodeSrc := &eem.NodeSource{Node: sys.ProxyHost, TCP: ctrl}
	sys.EEM.AddSource(nodeSrc)
	// Traffic-derived variables from the flow-log analytics plane, so
	// policy rules can react to what the streams are doing (retrans
	// ratio, zero-window rate), not just what the links report.
	sys.EEM.AddSource(newFlowVarSource(s, sys.Plane))
	// Per-interface link-shaping variables (link.bw, link.delivery_bps,
	// ...), indexed by the proxy host's interface order — the blockage
	// signal the mmWave policy rules fire on.
	sys.EEM.AddSource(newLinkVarSource(s, sys.ProxyHost))
	if cfg.MMWave {
		sys.Plane.RegisterCommand("mmwave", sys.mmwaveCommand)
	}
	// Adaptive filters query the same variables through their Env
	// (thesis ch. 6: filters are EEM clients too).
	sys.Plane.SetMetricSource(func(name string, index int) (float64, bool) {
		v, err := nodeSrc.Get(name, index)
		if err != nil {
			return 0, false
		}
		switch v.Kind {
		case eem.Long:
			return float64(v.L), true
		case eem.Double:
			return v.D, true
		}
		return 0, false
	})
	if err := eem.ServeSim(ctrl, eem.DefaultPort, sys.EEM); err != nil {
		panic(fmt.Sprintf("core: eem port: %v", err))
	}
	sys.EEM.StartSimTicker(s)

	if cfg.Migration {
		if !cfg.DoubleProxy {
			panic("core: Migration requires DoubleProxy")
		}
		// The A-side proxy has no route to B's wireless address (only
		// keyed routes toward the mobile); the migration control
		// connection needs one. B's default route covers the way back.
		sys.ProxyHost.AddRoute(ip.MustParseAddr("11.11.11.2").Mask(32), 32, sys.Wireless.IfaceA())
		// B gets its own control stack: until now nothing terminated
		// TCP on the far proxy host.
		ctrlB := tcp.NewStack(sys.ProxyHostB, cfg.TCP)
		sys.ProxyHostB.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
			ctrlB.Deliver(h.Src, h.Dst, p)
		})
		ctrlB.RegisterMetrics(sys.Metrics, "tcp.proxyctrlB")
		sys.Migrate = migrate.NewManager(migrate.Config{
			Name: "migrate", ID: 1, Sched: s,
			Plane: sys.Plane, Stack: ctrl, Bus: sys.Obs,
		})
		sys.MigrateB = migrate.NewManager(migrate.Config{
			Name: "migrateB", ID: 2, Sched: s,
			Plane: sys.PlaneB, Stack: ctrlB, Bus: sys.Obs,
		})
		if err := sys.Migrate.Serve(); err != nil {
			panic(fmt.Sprintf("core: migrate port: %v", err))
		}
		if err := sys.MigrateB.Serve(); err != nil {
			panic(fmt.Sprintf("core: migrate port (B): %v", err))
		}
		sys.Migrate.RegisterMetrics(sys.Metrics, "migrate")
		sys.MigrateB.RegisterMetrics(sys.Metrics, "migrateB")
		sys.Plane.RegisterCommand("migrate", sys.Migrate.Command)
		sys.PlaneB.RegisterCommand("migrate", sys.MigrateB.Command)
	}

	if cfg.WithUser {
		sys.User = n.AddNode("user")
		lu := n.Connect(sys.User, UserAddr, sys.ProxyHost, ip.MustParseAddr("11.11.9.1"), cfg.Wire)
		sys.User.AddDefaultRoute(lu.IfaceA())
		sys.ProxyHost.AddRoute(UserAddr.Mask(24), 24, lu.IfaceB())
		sys.UserTCP = tcp.NewStack(sys.User, cfg.TCP)
		registerStacks(sys.User, sys.UserTCP, nil)
		sys.UserTCP.RegisterMetrics(sys.Metrics, "tcp.user")
	}

	if len(cfg.Policy.Rules) > 0 {
		// The engine is an EEM client like any other: it dials the
		// proxy's control address from the wired host (the simulator
		// has no loopback path, so the proxy host cannot dial itself).
		cm := eem.NewComma(eem.SimDialer(sys.WiredTCP))
		cm.UseScheduler(s)
		cm.SetObs(sys.Obs)
		sys.Policy = policy.New(policy.Config{
			Sched:   s,
			Comma:   cm,
			Control: sys.Plane,
			Server:  ProxyCtrlAddr.String(),
			Bus:     sys.Obs,
			Period:  cfg.Policy.Period,
		})
		sys.Policy.RegisterMetrics(sys.Metrics, "policy")
		for _, spec := range cfg.Policy.Rules {
			if err := sys.Policy.AddRule(spec); err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
		}
		// Expose the engine on the SP control port so Kati's `policy`
		// command reaches it like any other SP command. Registered only
		// when configured, so default deployments keep their command
		// surface (and help text) unchanged.
		sys.Plane.RegisterCommand("policy", sys.Policy.Command)
		sys.Policy.Start()
	}
	return sys
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

// MustCommand runs an SP command on the primary proxy and panics on an
// error response (setup helper for examples and experiments).
func (s *System) MustCommand(line string) string {
	return mustCommand(s.Plane, "proxy", line)
}

// MustCommandB is MustCommand against the second proxy.
func (s *System) MustCommandB(line string) string {
	if s.PlaneB == nil {
		panic("core: no second proxy (Config.DoubleProxy)")
	}
	return mustCommand(s.PlaneB, "proxyB", line)
}

func mustCommand(pl *dataplane.Plane, name, line string) string {
	out := pl.Command(line)
	if strings.HasPrefix(out, "error") {
		panic(fmt.Sprintf("core: %s command %q: %s", name, line, out))
	}
	return out
}

// TransferResult reports a bulk transfer driven by Transfer.
type TransferResult struct {
	Sent      int
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
	_, err := s.MobileTCP.Listen(dstPort, func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			res.Received = append(res.Received, b...)
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

// CheckedTransfer is Transfer plus the integrity check every scenario
// leg makes: the error names what (e.g. "adapt: leg baseline") unless
// the transfer completed with exactly the payload's bytes. The result
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
	}
	return res, err
}
