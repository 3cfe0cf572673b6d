// Command spd is the service-proxy daemon: it runs the reference
// Comma topology (wired host — proxy — wireless — mobile) in real
// time, keeps a demonstration TCP stream flowing through the proxy,
// and exposes the SP command interface of thesis §5.3 on a real TCP
// port — so `telnet localhost 12000` reproduces the Fig 5.3 session
// against live filter state.
//
// Usage:
//
//	spd [-listen :12000] [-loss 0.02] [-bw 2000000]
//	    [-debug localhost:6060] [-policy '<rule>' ...]
//
// Each -policy flag (repeatable) adds one adaptive rule; with any, the
// daemon arms a policy engine on its proxy (core.System.ArmPolicy)
// and exits on a rule that does not parse. Rule state is then
// inspectable over the control port with `policy list` and `policy
// trace`. See internal/policy for the rule grammar.
//
// SIGINT or SIGTERM stops the daemon, which then exits with status 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/core/daemon"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func main() {
	listen := flag.String("listen", ":12000", "address for the SP control interface")
	loss := flag.Float64("loss", 0.0, "wireless packet loss probability")
	bw := flag.Int64("bw", 2e6, "wireless bandwidth, bits/s")
	debug := flag.String("debug", "", "address for expvar/pprof debug HTTP (e.g. localhost:6060); empty disables")
	var rules multiFlag
	flag.Var(&rules, "policy", "adaptive policy rule (repeatable); see internal/policy for the grammar")
	flag.Parse()
	log.SetPrefix("spd: ")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	sys := core.NewSystem(core.Config{
		Seed: time.Now().UnixNano(),
		Wireless: netsim.LinkConfig{
			Bandwidth: *bw,
			Delay:     10 * time.Millisecond,
			Loss:      netsim.Bernoulli{P: *loss},
		},
	})
	if len(rules) > 0 {
		if err := sys.ArmPolicy(sys.Site, core.PolicyConfig{Rules: rules}); err != nil {
			log.Fatal(err)
		}
	}
	rt := sim.NewRealtime(sys.Sched)

	// A perpetual demonstration stream so `report` has something to
	// show: wired:7 -> mobile:1169, refilled as it drains.
	rt.Do(func() {
		sys.MustCommand("load tcp")
		sys.MustCommand("load launcher")
		sys.MustCommand("load wsize")
		sys.MustCommand("load rdrop")
		sys.MustCommand("load snoop")
		sys.MustCommand("load ttsf")
		sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp", core.WiredAddr, core.MobileAddr))
		sys.MobileTCP.Listen(1169, func(c *tcp.Conn) {})
		client, err := sys.WiredTCP.ConnectFrom(7, core.MobileAddr, 1169)
		if err != nil {
			log.Fatalf("demo stream: %v", err)
		}
		var refill func()
		refill = func() {
			if client.State() == tcp.StateEstablished && client.BufferedOut() < 10_000 {
				client.Write(make([]byte, 10_000))
			}
			sys.Sched.After(time.Second, refill)
		}
		client.OnEstablished = func() { sys.Sched.After(0, refill) }
	})

	if *debug != "" {
		daemon.ServeDebug(*debug, rt, sys.Metrics)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("service proxy control on %s (try: telnet %s then 'report')", *listen, *listen)
	if err := daemon.Run(l, rt, proxy.AcceptControl(sys.Sched, sys.Proxy.Exec, nil), stop); err != nil {
		log.Fatal(err)
	}
	log.Print("stopped")
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
