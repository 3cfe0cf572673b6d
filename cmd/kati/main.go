// Command kati is the interactive Kati shell of thesis chapter 7,
// speaking to spd (service proxies) and eemd (EEM servers) over real
// TCP. It provides third-party monitoring and control of transparent
// stream services: list streams, add and remove filters, watch
// execution-environment variables.
//
// Usage:
//
//	kati
//	kati> sp localhost:12000
//	kati> report
//	kati> watch localhost:12001 sysUpTime GTE 0
package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"

	"repro/internal/eem"
	"repro/internal/kati"
)

// lockedWriter serializes shell output against asynchronous replies.
type lockedWriter struct {
	mu sync.Mutex
	w  *os.File
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

func main() {
	out := &lockedWriter{w: os.Stdout}
	// One mutex guards the shell and the EEM client: socket readers
	// deliver replies through it.
	var mu sync.Mutex

	spDial := func(addr string, onReply func(string)) (*kati.SPSession, error) {
		if !strings.Contains(addr, ":") {
			addr += ":12000"
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		go func() {
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				line := sc.Text()
				mu.Lock()
				onReply(line)
				mu.Unlock()
			}
		}()
		return kati.NewSPSession(
			func(line string) error { _, err := conn.Write([]byte(line)); return err },
			func() { conn.Close() },
		), nil
	}

	eemDial := func(server string) (eem.Conn, func(onData func([]byte)), error) {
		addr := server
		if !strings.Contains(addr, ":") {
			addr += ":12001"
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, nil, err
		}
		wire := func(onData func([]byte)) {
			go func() {
				buf := make([]byte, 4096)
				for {
					n, err := conn.Read(buf)
					if n > 0 {
						data := make([]byte, n)
						copy(data, buf[:n])
						mu.Lock()
						onData(data)
						mu.Unlock()
					}
					if err != nil {
						return
					}
				}
			}()
		}
		return realConn{conn}, wire, nil
	}

	shell := kati.New(out, spDial, eem.NewComma(eemDial))
	fmt.Fprintln(out, "kati — Comma service-control shell (help for commands, ^D to exit)")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(out, "kati> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			break
		}
		mu.Lock()
		shell.Exec(line)
		mu.Unlock()
		fmt.Fprint(out, "kati> ")
	}
}

// realConn adapts net.Conn to eem.Conn.
type realConn struct{ c net.Conn }

func (r realConn) Write(b []byte) error { _, err := r.c.Write(b); return err }
func (r realConn) Close()               { r.c.Close() }
func (r realConn) Abort()               { r.c.Close() }
