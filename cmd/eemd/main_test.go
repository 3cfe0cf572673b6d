package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs the daemon in place of the tests when the test binary
// is started as one by TestSignalExitsZero.
func TestMain(m *testing.M) {
	if os.Getenv("EEMD_RUN_DAEMON") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSignalExitsZero starts the daemon, waits until it serves its
// EEM port, sends it SIGTERM and checks that it exits with status
// 0 within a bound.
func TestSignalExitsZero(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "EEMD_RUN_DAEMON=1")
	logged := startDaemon(t, cmd)
	expectLine(t, logged, "EEM server on")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	expectLine(t, logged, "stopped")
	expectLine(t, logged, "") // the log ends when the process does
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
}

// startDaemon starts cmd and returns its log lines, closed when its
// stderr ends. A daemon still running when the test ends is killed.
func startDaemon(t *testing.T, cmd *exec.Cmd) <-chan string {
	t.Helper()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logged := make(chan string)
	go func() {
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			logged <- sc.Text()
		}
		close(logged)
	}()
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			for range logged {
			}
			cmd.Wait()
		}
	})
	return logged
}

// expectLine waits up to 10 s for a logged line containing want, or
// with want empty for the end of the log.
func expectLine(t *testing.T, logged <-chan string, want string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-logged:
			if !ok && want == "" {
				return
			}
			if !ok {
				t.Fatalf("daemon log ended before %q", want)
			}
			if want != "" && strings.Contains(line, want) {
				return
			}
		case <-deadline:
			t.Fatalf("no %q in the daemon log within 10 s", want)
		}
	}
}
