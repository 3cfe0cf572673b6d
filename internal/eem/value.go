// Package eem implements the Comma Execution-Environment Monitor of
// thesis chapter 6: servers that gather local network and machine
// statistics from pluggable sources and push them to interested
// clients, and a client library mirroring the comma_* functional
// interface of Tables 6.3–6.7 — variable IDs, notification attributes
// (bounds + operator), registration, and the three notification
// methods (interrupt-style callback, periodic silent updates into a
// protected data area, and synchronous-style polling).
//
// C-API correspondence (thesis Table 6.3–6.7 → this package):
//
//	comma_init / comma_term                → NewComma / Comma.Term
//	comma_setcallback                      → Comma.Register(..., WithCallback(fn))
//	comma_id_*                             → ID struct fields
//	comma_attr_*                           → Attr struct fields
//	comma_var_register / deregister[all]   → Comma.Register / Deregister / DeregisterAll
//	comma_query_getvalue                   → Comma.GetValue
//	comma_query_isinrange                  → Comma.IsInRange
//	comma_query_haschanged                 → Comma.HasChanged
//	comma_query_getvalue_once              → Comma.GetValueOnce
//
// The notification mode of a registration — silent PDA updates (the
// default), interrupt callback (WithCallback) or client-driven PDA
// refresh (WithPDA) — is selected by functional options on
// Comma.Register; the synchronous-style poll is GetValueOnce. The
// client keeps one record per server, per registration (which holds
// its protected-data-area slot) and per outstanding request.
package eem

import (
	"errors"
	"fmt"
	"strconv"
)

// Kind is the data type of a variable (thesis: LONG, DOUBLE, STRING).
type Kind int

// Variable kinds.
const (
	Long Kind = iota
	Double
	String
)

func (k Kind) String() string {
	switch k {
	case Long:
		return "LONG"
	case Double:
		return "DOUBLE"
	case String:
		return "STRING"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is the union type of thesis §6.3.1 (comma_type_t).
type Value struct {
	Kind Kind
	L    int64
	D    float64
	S    string
}

// LongValue, DoubleValue, and StringValue build Values.
func LongValue(v int64) Value     { return Value{Kind: Long, L: v} }
func DoubleValue(v float64) Value { return Value{Kind: Double, D: v} }
func StringValue(v string) Value  { return Value{Kind: String, S: v} }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case Long:
		return strconv.FormatInt(v.L, 10)
	case Double:
		return strconv.FormatFloat(v.D, 'g', -1, 64)
	default:
		return v.S
	}
}

// ParseValue reads a long, a double, or else a string — the one value
// grammar of Kati watch bounds and policy rule bounds. Numbers must be
// whole tokens: "20ms" and "1.5x" are strings, "+7" is the long 7.
func ParseValue(s string) Value {
	if l, err := strconv.ParseInt(s, 10, 64); err == nil {
		return LongValue(l)
	}
	if d, err := strconv.ParseFloat(s, 64); err == nil {
		return DoubleValue(d)
	}
	return StringValue(s)
}

// Equal compares two values of the same kind.
func (v Value) Equal(o Value) bool { return v == o }

// Float coerces a numeric value to float64; ok is false for strings.
func (v Value) Float() (float64, bool) {
	switch v.Kind {
	case Long:
		return float64(v.L), true
	case Double:
		return v.D, true
	}
	return 0, false
}

// Operator selects how attribute bounds are interpreted (thesis
// §6.3.2: COMMA_GT, GTE, LT, LTE, EQ, NEQ for unary — lower bound
// only — and COMMA_IN, OUT for binary).
type Operator int

// Attribute operators.
const (
	GT Operator = iota
	GTE
	LT
	LTE
	EQ
	NEQ
	IN
	OUT
)

var opNames = [...]string{"GT", "GTE", "LT", "LTE", "EQ", "NEQ", "IN", "OUT"}

func (o Operator) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Operator(%d)", int(o))
}

// ParseOperator inverts Operator.String (used by Kati).
func ParseOperator(s string) (Operator, error) {
	for i, n := range opNames {
		if n == s {
			return Operator(i), nil
		}
	}
	return 0, fmt.Errorf("eem: unknown operator %q", s)
}

// ErrTypeMismatch reports an attribute/value kind conflict.
var ErrTypeMismatch = errors.New("eem: operator invalid for value type")

// Attr is a notification specification (thesis comma_attr_t): the
// region of interest and how its bounds are read. For unary operators
// only Lower is used. Notify selects interrupt-style callbacks in
// addition to periodic updates.
type Attr struct {
	Lower Value
	Upper Value
	Op    Operator
	// Interrupt requests callback notification the moment the variable
	// enters the region (in addition to periodic PDA updates).
	Interrupt bool
}

// Matches reports whether v lies in the attribute's region of
// interest. String values support only EQ and NEQ (thesis §6.3.2).
func (a Attr) Matches(v Value) (bool, error) {
	if v.Kind == String {
		switch a.Op {
		case EQ:
			return v.S == a.Lower.S, nil
		case NEQ:
			return v.S != a.Lower.S, nil
		default:
			return false, ErrTypeMismatch
		}
	}
	f, ok := v.Float()
	if !ok {
		return false, ErrTypeMismatch
	}
	lo, ok := a.Lower.Float()
	if !ok {
		return false, ErrTypeMismatch
	}
	switch a.Op {
	case GT:
		return f > lo, nil
	case GTE:
		return f >= lo, nil
	case LT:
		return f < lo, nil
	case LTE:
		return f <= lo, nil
	case EQ:
		return f == lo, nil
	case NEQ:
		return f != lo, nil
	case IN, OUT:
		hi, ok := a.Upper.Float()
		if !ok {
			return false, ErrTypeMismatch
		}
		in := f >= lo && f <= hi
		if a.Op == IN {
			return in, nil
		}
		return !in, nil
	}
	return false, fmt.Errorf("eem: bad operator %v", a.Op)
}

// ID names a variable on a specific EEM server (thesis comma_id_t:
// variable name/number, optional index, and server).
type ID struct {
	Var    string
	Index  int // e.g. interface number for if* variables
	Server string
}

// String renders "server/var[index]".
func (id ID) String() string {
	s := id.Var
	if id.Index != 0 {
		s = fmt.Sprintf("%s[%d]", s, id.Index)
	}
	if id.Server != "" {
		s = id.Server + "/" + s
	}
	return s
}
