package eem

import "errors"

// Typed sentinels for the client/server control path. Call sites wrap
// them with errors that keep the historical message text, so callers
// branch with errors.Is while logs and golden outputs stay unchanged.
var (
	// ErrUnknownVar marks a variable name no source answers for.
	ErrUnknownVar = errors.New("eem: unknown variable")
	// ErrBadAttr marks a notification attribute that can never match
	// (operator out of range, or a string bound with a numeric-only
	// operator).
	ErrBadAttr = errors.New("eem: bad attribute")
	// ErrConnLost marks a request that died with its connection.
	ErrConnLost = errors.New("eem: connection lost")
	// ErrNoScheduler marks a Comma registration needing timers
	// (WithPDA) on a facade that has no scheduler attached.
	ErrNoScheduler = errors.New("eem: no scheduler attached")
)

// Wire error codes: the server tags protocol-level errors so the
// client can rebuild the matching sentinel on its side of the stream.
const (
	codeUnknownVar = "unknown-var"
)

// kindError carries an exact message plus the sentinel it stands for.
type kindError struct {
	msg  string
	kind error
}

func (e *kindError) Error() string { return e.msg }
func (e *kindError) Unwrap() error { return e.kind }

// wrapKind builds an error whose text is exactly msg and whose kind is
// recoverable via errors.Is.
func wrapKind(kind error, msg string) error {
	return &kindError{msg: msg, kind: kind}
}

// codeFor maps a server-side error to its wire code ("" when the error
// has no protocol-level meaning).
func codeFor(err error) string {
	if errors.Is(err, ErrUnknownVar) {
		return codeUnknownVar
	}
	return ""
}

// kindForCode inverts codeFor on the client side.
func kindForCode(code string) error {
	if code == codeUnknownVar {
		return ErrUnknownVar
	}
	return nil
}
