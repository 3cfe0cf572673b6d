package eem

import (
	"encoding/json"
	"fmt"

	"repro/internal/lines"
)

// The EEM wire protocol is newline-delimited JSON messages over a byte
// stream (the thesis's "lean data-transfer protocol between client and
// server", §6.1.2, rendered debuggable). The same codec runs over the
// simulated TCP stack and over real net.Conn in the daemons.

// Message kinds.
const (
	msgRegister      = "register"
	msgDeregister    = "deregister"
	msgDeregisterAll = "deregister-all"
	msgPoll          = "poll"
	msgUpdate        = "update" // periodic batch: vars currently in range
	msgNotify        = "notify" // interrupt-style single variable
	msgPollReply     = "poll-reply"
	msgError         = "error"
	msgListVars      = "list-vars"
	msgVarList       = "var-list"
)

// wireMsg is the single envelope for all protocol messages.
type wireMsg struct {
	Kind string `json:"kind"`
	// Seq correlates poll requests with replies.
	Seq int64 `json:"seq,omitempty"`
	ID  ID    `json:"id,omitempty"`
	A   Attr  `json:"attr,omitempty"`
	V   Value `json:"value,omitempty"`
	// Batch carries the variables of a periodic update.
	Batch []varUpdate `json:"batch,omitempty"`
	Err   string      `json:"err,omitempty"`
	// Code tags protocol errors with a machine-readable kind so the
	// client can reconstruct the matching typed sentinel (errors.go).
	Code  string   `json:"code,omitempty"`
	Names []string `json:"names,omitempty"`
}

// varUpdate is one entry in a periodic update batch.
type varUpdate struct {
	ID ID    `json:"id"`
	V  Value `json:"value"`
}

// encodeMsg renders a message as one JSON line.
func encodeMsg(m wireMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// All fields are marshalable types; this cannot happen.
		panic(fmt.Sprintf("eem: marshal: %v", err))
	}
	return append(b, '\n')
}

// MaxLine bounds one protocol message. The largest legitimate line is
// the periodic update of a client registered to the whole catalogue at
// every interface index of the proxy host: about 18 KiB for the 78
// variables of core.NewSystem (TestEEMFullCatalogueUpdate; the
// var-list reply is ~1 KiB). 64 KiB leaves room for further sources
// and still caps what a peer can make the other side hold. The SP
// port's 4 KiB would cut that update off, hence a bound per protocol.
const MaxLine = 64 << 10

// errTooLong answers a message over MaxLine.
var errTooLong = encodeMsg(wireMsg{Kind: msgError, Err: fmt.Sprintf("message exceeds %d bytes", MaxLine)})

// readLines frames conn's inbound messages for handle under MaxLine,
// skipping blank lines; diag, if any, answers an over-long one.
func readLines(conn Conn, diag []byte, handle func(line []byte)) func([]byte) {
	return lines.New(conn, MaxLine, diag, func(line []byte) error {
		if len(line) > 0 {
			handle(line)
		}
		return nil
	})
}

// Conn is the byte stream the protocol runs over: the simulated TCP
// connection in experiments, a real net.Conn in the daemons.
type Conn = lines.Conn
