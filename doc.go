// Package repro is a from-scratch Go reproduction of "Transparent
// Communication Management in Wireless Networks" (Kidston, University
// of Waterloo 1998; HotOS 1999): the Comma service-proxy architecture,
// the Execution-Environment Monitor, the Kati third-party control
// shell, and the TCP-Transparency-Support Filter, together with every
// substrate they need — a deterministic discrete-event network
// simulator, full TCP/IPv4/UDP stacks, and Mobile IP.
//
// Start with internal/core (assembled deployments), cmd/wsim (the
// experiment driver regenerating the thesis's tables and figures), and
// the runnable programs under examples/. DESIGN.md maps every paper
// artifact to the module and experiment that reproduces it;
// EXPERIMENTS.md records the measured results.
package repro
