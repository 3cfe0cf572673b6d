// Command spd is the service-proxy daemon: it runs the reference
// Comma topology (wired host — proxy — wireless — mobile) in real
// time, keeps a demonstration TCP stream flowing through the proxy,
// and exposes the SP command interface of thesis §5.3 on a real TCP
// port — so `telnet localhost 12000` reproduces the Fig 5.3 session
// against live filter state.
//
// Usage:
//
//	spd [-listen :12000] [-loss 0.02] [-bw 2000000] [-shards 4]
//	    [-policy '<rule>' ...]
//
// Each -policy flag (repeatable) arms one adaptive rule on the policy
// engine; rule state is then inspectable over the control port with
// `policy list` and `policy trace`. See internal/policy for the rule
// grammar.
package main

import (
	"bufio"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"runtime"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func main() {
	listen := flag.String("listen", ":12000", "address for the SP control interface")
	loss := flag.Float64("loss", 0.0, "wireless packet loss probability")
	bw := flag.Int64("bw", 2e6, "wireless bandwidth, bits/s")
	debug := flag.String("debug", "", "address for expvar/pprof debug HTTP (e.g. localhost:6060); empty disables")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "data-plane shard count (1 = classic single interception loop)")
	var rules multiFlag
	flag.Var(&rules, "policy", "adaptive policy rule (repeatable); see internal/policy for the grammar")
	flag.Parse()
	for _, r := range rules {
		if _, err := policy.ParseRule(r); err != nil {
			log.Fatalf("spd: %v", err)
		}
	}

	sys := core.NewSystem(core.Config{
		Seed:   time.Now().UnixNano(),
		Shards: *shards,
		Wireless: netsim.LinkConfig{
			Bandwidth: *bw,
			Delay:     10 * time.Millisecond,
			Loss:      netsim.Bernoulli{P: *loss},
		},
		Policy: core.PolicyConfig{Rules: rules},
	})
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
	go rt.Run(5 * time.Millisecond)

	if *debug != "" {
		serveDebug(*debug, rt, sys.Metrics)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("spd: %v", err)
	}
	log.Printf("spd: service proxy control on %s (try: telnet %s then 'report')", *listen, *listen)
	for {
		conn, err := l.Accept()
		if err != nil {
			log.Fatalf("spd: accept: %v", err)
		}
		go serve(conn, rt, sys)
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// serveDebug exposes the unified metrics snapshot through expvar
// (under "comma") plus the stock pprof handlers on a debug HTTP port.
// Simulation state is only touched inside DoSync, so scrapes are safe
// against the realtime driver.
func serveDebug(addr string, rt *sim.Realtime, metrics *obs.Registry) {
	expvar.Publish("comma", expvar.Func(func() any {
		var snap []obs.Sample
		rt.DoSync(func() { snap = metrics.Snapshot() })
		out := make(map[string]string, len(snap))
		for _, s := range snap {
			out[s.Name] = s.Value
		}
		return out
	}))
	go func() {
		log.Printf("spd: debug HTTP (expvar, pprof) on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("spd: debug HTTP: %v", err)
		}
	}()
}

// serve runs one control session under the same bounds as the
// simulated control port (proxy.serveControlConn): lines are capped at
// proxy.MaxControlLine (an unframed flood gets a diagnostic and the
// session is severed), non-UTF-8 lines are rejected but the session
// lives, and a session idle past proxy.ControlIdleTimeout is dropped.
func serve(conn net.Conn, rt *sim.Realtime, sys *core.System) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 512), proxy.MaxControlLine)
	for {
		conn.SetReadDeadline(time.Now().Add(proxy.ControlIdleTimeout))
		if !sc.Scan() {
			if sc.Err() == bufio.ErrTooLong {
				fmt.Fprintf(conn, "error: command line exceeds %d bytes\n", proxy.MaxControlLine)
			}
			return
		}
		line := sc.Text()
		if !utf8.ValidString(line) {
			if _, err := conn.Write([]byte("error: command line is not valid UTF-8\n")); err != nil {
				return
			}
			continue
		}
		var out string
		rt.DoSync(func() { out = sys.Plane.Command(line) })
		if out != "" {
			if _, err := conn.Write([]byte(out)); err != nil {
				return
			}
		}
	}
}
