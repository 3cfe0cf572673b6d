// Quickstart: build a Comma deployment, apply the tcp bookkeeping
// filter to all mobile-bound streams, and push a file-sized transfer
// through the proxy. Shows the minimal public-API workflow:
//
//  1. core.NewSystem — simulated wired/wireless topology with the
//     Service Proxy and EEM already attached;
//  2. proxy commands (load / add) — exactly the thesis's §5.3 command
//     set;
//  3. Transfer — drive traffic and read the result.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
)

func main() {
	sys := core.NewSystem(core.Config{})

	// The launcher applies the tcp filter to every new stream headed
	// for the mobile (thesis Fig 5.3's wild-card key).
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp",
		core.WiredAddr, core.MobileAddr))

	// Run the first 150 ms of the transfer, inspect the proxy while the
	// stream is live, then let the simulation finish it.
	payload := bytes.Repeat([]byte("hello, mobile world! "), 5000)
	res, err := sys.Transfer(payload, 7, 5001, 150*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("proxy report mid-transfer (thesis §5.3 'report' command):")
	fmt.Print(sys.MustCommand("report"))
	fmt.Println("\nproxy stream accounting:")
	fmt.Print(sys.MustCommand("streams"))

	// Let the transfer finish.
	sys.Sched.RunFor(2 * time.Minute)
	fmt.Printf("\ntransferred %d bytes over the wireless link (virtual time %v+)\n",
		len(res.Received), res.Elapsed)
	fmt.Printf("intact: %v\n", bytes.Equal(res.Received, payload))
}
