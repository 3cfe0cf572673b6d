package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eem"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/kati"
	"repro/internal/netsim"
	"repro/internal/trace"
)

func runE1(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{Seed: seed})
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
	return runControlScript(w, sys, []string{
		"report",
		"add rdrop " + key + " 50",
		"report",
		"delete wsize " + key,
		"report",
	})
}

func runE2(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{Seed: seed, Topology: core.TopoKati, EEMInterval: 10 * time.Second})
	cm := eem.NewComma(eem.SimDialer(sys.UserTCP))
	id := eem.ID{Var: "sysUpTime", Server: "11.11.9.1"}
	attr := eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(2000), Op: eem.IN}
	if err := cm.Register(id, attr); err != nil {
		return fmt.Errorf("E2: register: %w", err)
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
	return nil
}

func runE3(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{Seed: seed, Topology: core.TopoKati, EEMInterval: time.Second})
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("load wsize")
	sys.MustCommand(fmt.Sprintf("add launcher %v 0 %v 0 tcp", core.WiredAddr, core.MobileAddr))
	client := keepAliveStream(sys)
	sys.Sched.RunFor(2 * time.Second)

	spDial := func(addr string, onReply func(string)) (*kati.SPSession, error) {
		a, err := ip.ParseAddr(addr)
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
	return nil
}

func runE4(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{Seed: seed})
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
		return fmt.Errorf("E4: transfer: %w", err)
	}
	fmt.Fprintf(w, "\nsender sent %d B and completed=%v; mobile received %d B (segment 2 excised)\n",
		res.Sent, senderClosed(res), len(res.Received))
	k := filterKeyFor(7)
	if st, ok := filters.TTSFStatsFor(k); ok {
		fmt.Fprintf(w, "ttsf: edits=%d bytesIn=%d bytesOut=%d synthesizedAcks=%d\n",
			st.Edits, st.BytesIn, st.BytesOut, st.SynthesizedAcks)
	}
	if !senderClosed(res) {
		return fmt.Errorf("E4: sender left in %v, want CLOSED or TIME_WAIT", res.Client.State())
	}
	return nil
}

func runE5(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{
		Seed: seed, Topology: core.TopoDouble,
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
		return fmt.Errorf("E5: transfer: %w", err)
	}
	t := trace.NewTable("Fig 8.4 reproduction: transparent compression, per-hop bytes",
		"hop", "payload bytes", "ratio")
	carried := sys.Wireless.StatsAB().Bytes
	t.AddRow("wired sender -> proxy A", res.Sent, 1.0)
	t.AddRow("proxy A -> proxy B (wireless)", carried, float64(carried)/float64(res.Sent))
	t.AddRow("proxy B -> mobile app", len(res.Received), float64(len(res.Received))/float64(res.Sent))
	t.Fprint(w)
	intact := string(res.Received) == string(payload)
	fmt.Fprintf(w, "delivered intact: %v; transfer time %v\n", intact, res.Elapsed)
	if !intact {
		return fmt.Errorf("E5: mobile received %d B that are not the %d B sent", len(res.Received), res.Sent)
	}
	return nil
}

func runE6(_ int64, w io.Writer) error {
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
	return nil
}
