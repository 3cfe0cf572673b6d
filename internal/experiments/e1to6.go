package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eem"
	"repro/internal/kati"
	"repro/internal/netsim"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:          "E1",
		Paper:       "Fig 5.3 (SP interface example)",
		Description: "Telnet session to the service proxy: report, add rdrop 50%, report, delete wsize, report.",
		Run:         runE1,
	})
	register(Experiment{
		ID:          "E2",
		Paper:       "Fig 6.2 + Tables 6.1–6.7 (EEM sample client)",
		Description: "Register sysUpTime with an IN [0,20s] attribute, poll the protected data area at 10s intervals for two minutes.",
		Run:         runE2,
	})
	register(Experiment{
		ID:          "E3",
		Paper:       "Figs 7.1–7.4 (Kati session)",
		Description: "Third-party service control: view streams, add a service from Kati, new service appears.",
		Run:         runE3,
	})
	register(Experiment{
		ID:          "E4",
		Paper:       "Figs 8.2/8.3 (TTSF packet-dropping example)",
		Description: "A service drops one segment under the TTSF; endpoint traces show the sequence-space remapping.",
		Run:         runE4,
	})
	register(Experiment{
		ID:          "E5",
		Paper:       "Fig 8.4 (TTSF packet-compression example)",
		Description: "Double-proxy transparent compression; per-hop byte counts show the wireless savings.",
		Run:         runE5,
	})
	register(Experiment{
		ID:          "E6",
		Paper:       "Table 3.1 (comparison of the work reviewed)",
		Description: "The thesis's related-work matrix, annotated with what this repository implements.",
		Run:         runE6,
	})
}

func runE1(w io.Writer) {
	sys := core.NewSystem(core.Config{Seed: 11})
	// Pre-load the filter pool of the thesis example: tcp, launcher
	// (applying tcp+wsize to mobile-bound streams), wsize, rdrop.
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("load wsize")
	sys.MustCommand("load rdrop")
	sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp wsize:cap:8192", core.WiredAddr, core.MobileAddr))
	keepAliveStream(sys)
	sys.Sched.RunFor(2 * time.Second)

	key := fmt.Sprintf("%v 7 %v 1169", core.WiredAddr, core.MobileAddr)
	runControlScript(w, sys, []string{
		"report",
		"add rdrop " + key + " 50",
		"report",
		"delete wsize " + key,
		"report",
	})
}

func runE2(w io.Writer) {
	sys := core.NewSystem(core.Config{Seed: 12, Topology: core.TopoKati, EEMInterval: 10 * time.Second})
	cm := eem.NewComma(eem.SimDialer(sys.UserTCP))
	id := eem.ID{Var: "sysUpTime", Server: "11.11.9.1"}
	attr := eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(2000), Op: eem.IN}
	if err := cm.Register(id, attr); err != nil {
		fmt.Fprintf(w, "register: %v\n", err)
		return
	}
	fmt.Fprintf(w, "registered %s with IN [0,2000] (TimeTicks); polling PDA every 10s:\n", id)
	for i := 0; i < 12; i++ {
		sys.Sched.RunFor(10 * time.Second)
		if cm.HasChanged(id) {
			v, _ := cm.GetValue(id)
			fmt.Fprintf(w, "  t=%3ds  sysUpTime changed: %s\n", (i+1)*10, v)
		} else {
			fmt.Fprintf(w, "  t=%3ds  (no update — variable outside region)\n", (i+1)*10)
		}
	}
}

func runE3(w io.Writer) {
	sys := core.NewSystem(core.Config{Seed: 13, Topology: core.TopoKati, EEMInterval: time.Second})
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("load wsize")
	sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp", core.WiredAddr, core.MobileAddr))
	client := keepAliveStream(sys)
	sys.Sched.RunFor(2 * time.Second)

	spDial := func(addr string, onReply func(string)) (*kati.SPSession, error) {
		a, err := parseAddr(addr)
		if err != nil {
			return nil, err
		}
		c, err := sys.UserTCP.Connect(a, 12000)
		if err != nil {
			return nil, err
		}
		c.OnData = func(b []byte) { onReply(string(b)) }
		return kati.NewSPSession(func(line string) error { return c.Write([]byte(line)) }, func() { c.Close() }), nil
	}
	cm := eem.NewComma(eem.SimDialer(sys.UserTCP))
	shell := kati.New(w, spDial, cm)
	run := func(cmd string) {
		fmt.Fprintf(w, "kati> %s\n", cmd)
		shell.Exec(cmd)
		sys.Sched.RunFor(500 * time.Millisecond)
	}
	run("sp 11.11.9.1")
	run("streams")
	run(fmt.Sprintf("add wsize %v %d %v 1169 cap 4096", core.WiredAddr, client.LocalPort(), core.MobileAddr))
	run("streams")
	run("get 11.11.9.1 ipForwDatagrams")
}

func runE4(w io.Writer) {
	sys := core.NewSystem(core.Config{Seed: 14})
	registerExtras(sys)
	sys.MustCommand("load tcp")
	sys.MustCommand("load ttsf")
	sys.MustCommand("load dropnth")
	sys.MustCommand("load launcher")
	sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf dropnth:2", core.WiredAddr, core.MobileAddr))

	fmt.Fprintln(w, "wired sender transmits 3000 B (segments of 1460+1460+80); the service drops segment 2 at the proxy:")
	tr := newSegTracer(w, "", 40)
	sys.WiredTCP.OnSegment = tr.hook()
	trM := newSegTracer(w, "mobile", 40)
	sys.MobileTCP.OnSegment = trM.hook()
	tr.label = "wired"

	payload := pattern(3000)
	res, err := sys.Transfer(payload, 7, 5001, 60*time.Second)
	if err != nil {
		fmt.Fprintf(w, "transfer: %v\n", err)
		return
	}
	fmt.Fprintf(w, "\nsender sent %d B and completed=%v; mobile received %d B (segment 2 excised)\n",
		res.Sent, res.Client.State().String() == "CLOSED" || res.Client.State().String() == "TIME_WAIT", len(res.Received))
	k := filterKeyFor(7)
	if st, ok := ttsfStats(k); ok {
		fmt.Fprintf(w, "ttsf: edits=%d bytesIn=%d bytesOut=%d synthesizedAcks=%d\n",
			st.Edits, st.BytesIn, st.BytesOut, st.SynthesizedAcks)
	}
}

func runE5(w io.Writer) {
	sys := core.NewSystem(core.Config{
		Seed: 15, Topology: core.TopoDouble,
		Wireless: netsim.LinkConfig{Bandwidth: 1e6, Delay: 20 * time.Millisecond},
	})
	for _, c := range []string{"load tcp", "load ttsf", "load comp", "load launcher",
		fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf comp:6", core.WiredAddr, core.MobileAddr)} {
		sys.MustCommand(c)
	}
	for _, c := range []string{"load tcp", "load ttsf", "load decomp", "load launcher",
		fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf decomp", core.WiredAddr, core.MobileAddr)} {
		sys.Peer.MustCommand(c)
	}
	payload := repeatText(120_000)
	res, err := sys.Transfer(payload, 7, 5001, 300*time.Second)
	if err != nil {
		fmt.Fprintf(w, "transfer: %v\n", err)
		return
	}
	t := trace.NewTable("Fig 8.4 reproduction: transparent compression, per-hop bytes",
		"hop", "payload bytes", "ratio")
	carried := sys.Wireless.StatsAB().Bytes
	t.AddRow("wired sender -> proxy A", res.Sent, 1.0)
	t.AddRow("proxy A -> proxy B (wireless)", carried, float64(carried)/float64(res.Sent))
	t.AddRow("proxy B -> mobile app", len(res.Received), float64(len(res.Received))/float64(res.Sent))
	t.Fprint(w)
	fmt.Fprintf(w, "delivered intact: %v; transfer time %v\n",
		string(res.Received) == string(payload), res.Elapsed)
}

func runE6(w io.Writer) {
	t := trace.NewTable("Table 3.1: A Comparison of the Work Reviewed",
		"Project", "ProtocolTransp", "ApplicTransp", "GeneralApplic", "in this repo")
	rows := [][]string{
		{"Coda", "Yes", "Yes", "No", "-"},
		{"Rover", "Yes", "No", "Yes", "-"},
		{"WIT", "Yes", "No", "Yes", "-"},
		{"I-TCP", "No", "Yes", "No", "-"},
		{"Snoop", "Yes", "Yes", "No", "filters/snoop"},
		{"BSSP", "Yes", "Yes", "No", "filters/wsize (cap+zwsm)"},
		{"TranSend", "No", "No", "No", "filters/comp (distillation analogue)"},
		{"MOWGLI", "No", "No", "No", "-"},
		{"Columbia", "No", "No", "Yes", "proxy + filter framework"},
		{"Comma(+Kati)", "Yes", "Yes", "Yes", "entire repository"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3], r[4])
	}
	t.Fprint(w)
}
