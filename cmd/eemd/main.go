// Command eemd is the EEM server daemon: it serves the Table 6.1/6.2
// variable catalogue of a live simulated proxy host over a real TCP
// port, speaking the EEM line protocol (internal/eem/protocol.go) that
// the eem client library and Kati use; it is plain text, so telnet
// speaks it too.
//
// Usage:
//
//	eemd [-listen :12001] [-interval 10s]
package main

import (
	"flag"
	"log"
	"net"
	_ "net/http/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/core/daemon"
	"repro/internal/sim"
)

func main() {
	listen := flag.String("listen", ":12001", "address for the EEM protocol")
	interval := flag.Duration("interval", 10*time.Second, "periodic update interval")
	debug := flag.String("debug", "", "address for expvar/pprof debug HTTP (e.g. localhost:6061); empty disables")
	flag.Parse()
	log.SetPrefix("eemd: ")

	sys := core.NewSystem(core.Config{Seed: time.Now().UnixNano(), EEMInterval: *interval})
	rt := sim.NewRealtime(sys.Sched)
	go rt.Run(5 * time.Millisecond)

	if *debug != "" {
		daemon.ServeDebug(*debug, rt, sys.Metrics)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("EEM server on %s (interval %v, %d variables)",
		*listen, *interval, len(sys.EEM.Variables()))
	log.Fatal(daemon.Serve(l, rt, sys.EEM.Accept))
}
