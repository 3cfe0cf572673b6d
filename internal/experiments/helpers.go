package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// dropNth is a deterministic transparency-demo service filter: it
// drops exactly the nth data segment of the stream (1-based). It
// stands in for rdrop when an experiment needs a reproducible trace
// (Fig 8.3's worked example drops one specific packet).
type dropNth struct{}

func (*dropNth) Name() string              { return "dropnth" }
func (*dropNth) Priority() filter.Priority { return filter.Low }
func (*dropNth) Description() string       { return "drops exactly the nth data segment" }

func (f *dropNth) New(env filter.Env, k filter.Key, args []string) error {
	n := 2
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 {
			return fmt.Errorf("dropnth: bad segment index %q", args[0])
		}
		n = v
	}
	seen := 0
	dropped := false
	_, err := env.Attach(k, filter.Hooks{
		Filter: "dropnth", Priority: filter.Low,
		Out: func(p *filter.Packet) {
			if p.TCP == nil || len(p.TCP.Payload) == 0 || p.Dropped() {
				return
			}
			if dropped {
				return
			}
			seen++
			if seen == n {
				dropped = true
				p.Drop()
			}
		},
	})
	return err
}

// registerExtras adds the experiment-only filters to a system catalog.
func registerExtras(sys *core.System) {
	sys.Catalog.Register("dropnth", func() filter.Factory { return &dropNth{} })
}

// lossyConfig is the system E7, E19 and E21 run their loss legs on: a
// 2 Mb/s, 25 ms wireless link dropping by loss behind a 200-packet
// queue, and 16 KB receive windows — the era's BSD socket buffers,
// which keep the base-station queue near the bandwidth-delay product,
// as in the Snoop testbed.
func lossyConfig(sd int64, loss netsim.LossModel) core.Config {
	return core.Config{Seed: sd, TCP: tcp.Config{RcvWnd: 16384},
		Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 25 * time.Millisecond, Loss: loss, QueueLen: 200}}
}

// relayChain, as lossLeg's chain, puts the I-TCP relay on the
// transfer's port in place of a filter chain.
const relayChain = "itcp"

// legRun is one seed of a lossLeg.
type legRun struct {
	sys *core.System
	res *core.TransferResult
}

// lossLeg is the loss leg E7, E19 and E21 share: a 300 KB transfer from
// the wired host to the mobile's port 5001 at seeds seed, seed+1 and
// seed+2, each on the system cfg builds for its seed, behind `launcher
// → chain` ("tcp" or "tcp snoop") or through the I-TCP relay
// (relayChain). It returns the mean goodput in KB/s, a transfer
// unfinished at deadline counting 0, and each seed's run. It averages
// because a single run at high loss is dominated by a handful of
// timeout coincidences.
func lossLeg(seed int64, cfg func(sd int64) core.Config, chain string, deadline time.Duration) (float64, []legRun) {
	const seeds = 3
	total := 0.0
	runs := make([]legRun, 0, seeds)
	for sd := seed; sd < seed+seeds; sd++ {
		sys := core.NewSystem(cfg(sd))
		if chain == relayChain {
			sys.ArmRelay(sys.Site, 5001)
		} else {
			for _, f := range append([]string{"launcher"}, strings.Fields(chain)...) {
				sys.MustCommand("load " + f)
			}
			sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 %s", core.WiredAddr, core.MobileAddr, chain))
		}
		res, err := sys.Transfer(pattern(300_000), 7, 5001, deadline)
		if err != nil {
			panic(fmt.Sprintf("loss leg %q: %v", chain, err)) // a fresh system always starts one
		}
		if res.Completed {
			total += float64(res.Sent) / res.Elapsed.Seconds() / 1000
		}
		runs = append(runs, legRun{sys, res})
	}
	return total / seeds, runs
}

// segTracer records a one-line-per-segment trace at a stack, with
// sequence numbers rebased to the first SYN seen in each direction so
// traces read like the thesis figures (segments start at 1).
type segTracer struct {
	w     io.Writer
	label string
	base  map[string]uint32 // "src>dst" -> ISS
	lines int
	max   int
}

func newSegTracer(w io.Writer, label string, max int) *segTracer {
	return &segTracer{w: w, label: label, base: make(map[string]uint32), max: max}
}

// hook returns an OnSegment callback for a tcp.Stack.
func (st *segTracer) hook() func(send bool, src, dst ip.Addr, seg *tcp.Segment) {
	return func(send bool, src, dst ip.Addr, seg *tcp.Segment) {
		dirKey := src.String() + ">" + dst.String()
		revKey := dst.String() + ">" + src.String()
		if seg.Flags&tcp.FlagSYN != 0 {
			st.base[dirKey] = seg.Seq
		}
		if st.lines >= st.max {
			return
		}
		st.lines++
		rel := seg.Seq - st.base[dirKey]
		relAck := seg.Ack - st.base[revKey]
		dir := "rcv"
		if send {
			dir = "snd"
		}
		fmt.Fprintf(st.w, "  %-6s %s: seq=%d len=%d ack=%d [%s]\n",
			st.label, dir, rel, len(seg.Payload), relAck, seg.FlagString())
	}
}

// runControlScript opens a control session from the wired host to the
// proxy's SP port, sends each command, and renders a telnet-style
// transcript (thesis Fig 5.3).
func runControlScript(w io.Writer, sys *core.System, commands []string) error {
	conn, err := sys.WiredTCP.Connect(core.ProxyCtrlAddr, 12000)
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	fmt.Fprintf(w, "wired:~> telnet %v 12000\n", core.ProxyCtrlAddr)
	fmt.Fprintf(w, "Trying %v...\nConnected to proxy.\n", core.ProxyCtrlAddr)
	var pending []string
	conn.OnData = func(b []byte) {
		for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
			fmt.Fprintln(w, line)
		}
	}
	send := func() {
		if len(pending) == 0 {
			conn.Close()
			return
		}
		cmd := pending[0]
		pending = pending[1:]
		fmt.Fprintln(w, cmd)
		conn.Write([]byte(cmd + "\n"))
	}
	pending = commands
	conn.OnEstablished = func() { send() }
	// Pace commands so replies interleave in order.
	for i := 0; i <= len(commands); i++ {
		sys.Sched.RunFor(200 * time.Millisecond)
		if i < len(commands) {
			send()
		}
	}
	fmt.Fprintln(w, "Connection closed.")
	return nil
}

// patternPeriod is the period of pattern's bytes: byte(i*31 + i/253)
// is unchanged by adding 256·253 to i (it adds 256·253·31 + 256).
const patternPeriod = 256 * 253

// pattern builds n bytes of deterministic, incompressible-ish data,
// byte(i*31 + i/253) at index i. One period is computed; the rest is
// copied from it, doubling each time.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b[:min(n, patternPeriod)] {
		b[i] = byte(i*31 + i/253)
	}
	for k := patternPeriod; k < n; k *= 2 {
		copy(b[k:], b[:k])
	}
	return b
}

// repeatText builds ~n bytes of highly compressible text.
func repeatText(n int) []byte {
	const chunk = "the quick brown fox jumps over the lazy dog. "
	b := make([]byte, 0, n+len(chunk))
	for len(b) < n {
		b = append(b, chunk...)
	}
	return b[:n]
}

// randomBytes builds n bytes of seeded uniform noise (incompressible).
func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// filterKeyFor names the forward key of a Transfer stream to port 5001.
func filterKeyFor(srcPort uint16) filter.Key {
	return filter.Key{SrcIP: core.WiredAddr, SrcPort: srcPort,
		DstIP: core.MobileAddr, DstPort: 5001}
}

// claims collects the broken claims of a row's "shape check:" or
// "finding:" line, each naming its inequality and operands, so the row
// can print its prose unconditionally and then return what failed.
type claims []error

// check records a broken claim when ok is false.
func (c *claims) check(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Errorf(format, args...))
	}
}

// err joins the broken claims; nil when every claim held.
func (c claims) err() error { return errors.Join(c...) }

// senderClosed reports whether a transfer's sender finished its close.
func senderClosed(res *core.TransferResult) bool {
	st := res.Client.State()
	return st == tcp.StateClosed || st == tcp.StateTimeWait
}

// keepAliveStream opens a long-lived stream wired:7 -> mobile:1169
// with a trickle of data so filter queues stay populated.
func keepAliveStream(sys *core.System) *tcp.Conn {
	sys.MobileTCP.Listen(1169, func(c *tcp.Conn) {})
	client, err := sys.WiredTCP.ConnectFrom(7, core.MobileAddr, 1169)
	if err != nil {
		panic(err)
	}
	var trickle func()
	trickle = func() {
		if client.State() == tcp.StateEstablished {
			client.Write([]byte("tick "))
		}
		sys.Sched.After(500*time.Millisecond, trickle)
	}
	client.OnEstablished = func() { sys.Sched.After(0, trickle) }
	return client
}

// policyEvents counts the policy engines' fire and revert transitions
// on the bus so far.
func policyEvents(sys *core.System) (fires, reverts int) {
	return sys.Obs.Count("policy", "fire"), sys.Obs.Count("policy", "revert")
}

// eventsTrailer closes a scenario's output: the bus events keep
// selects under an "=== <heading> ===" line, then the unified metrics
// snapshot under the given table title.
func eventsTrailer(w io.Writer, sys *core.System, heading string, keep func(obs.Event) bool, metricsTitle string) {
	fmt.Fprintf(w, "\n=== %s ===\n", heading)
	for _, e := range sys.Obs.Events() {
		if keep(e) {
			fmt.Fprintln(w, e.String())
		}
	}
	fmt.Fprintf(w, "\n=== metrics snapshot ===\n")
	fmt.Fprint(w, sys.Metrics.Table(metricsTitle).String())
}

// policyTrailer closes a policy scenario's output with the control
// surface view — rule state through the SP `policy` command (plus
// moreState, for engines that do not ride the A plane's command
// table) and the A engine's trace — then the policy events and the
// metrics snapshot.
func policyTrailer(w io.Writer, sys *core.System, moreState, traceHeading, metricsTitle string) {
	fmt.Fprintf(w, "\n=== policy state ===\n")
	fmt.Fprint(w, sys.MustCommand("policy list"), moreState)
	fmt.Fprintf(w, "\n=== %s ===\n", traceHeading)
	fmt.Fprint(w, sys.MustCommand("policy trace 40"))
	eventsTrailer(w, sys, "policy events", func(e obs.Event) bool { return e.Subsys == "policy" }, metricsTitle)
}
