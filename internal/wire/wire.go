// Package wire is the control-plane codec: every message the
// applications exchange as a Go value (attestation steps, SDN policies,
// routes and verdicts, tor relay descriptors and relay lists, GMW
// rounds) is gob-encoded by Encode and read back by Decode. Each message
// gets a fresh encoder, so it carries its own type definitions.
//
// Where a message is sealed, its encoded length is an input to the cost
// model: sdnctl's requests and responses (attest.SessionTable.Seal) and
// the tor authority's sealed relay list (core.Env.SealData) are charged
// per byte. Attestation messages travel in the clear and the message
// shim charges them per packet, so their length does not matter. gob
// assigns type IDs process-wide in first-encode order, and an ID's value
// sets how many bytes it takes (ID 64, the first a user type gets, opens
// its type definition in one byte, later IDs in two or more). Left to
// gob, a sealed message's length would depend on which code path reached
// gob first: test order, worker interleaving.
// So each package that sends messages pins its types with one Pin call
// in its init, which fixes their IDs in package initialization order,
// and Encode refuses a type that no package pinned.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sync"
)

// pinned holds each pinned type, pointers removed.
var pinned sync.Map // reflect.Type → struct{}

// Pin assigns gob type IDs to the types of vs, in order, by encoding
// each value once, and admits those types to Encode. A type's fields
// get their IDs with it, whether or not the value fills them. Call Pin
// once per package, from init. It panics if a value cannot be encoded:
// that is a bug in the calling package.
func Pin(vs ...any) {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("wire: pin %T: %v", v, err))
		}
		pinned.Store(indirect(reflect.TypeOf(v)), struct{}{})
	}
}

// Encode gob-encodes v. It returns an error naming v's type, and no
// bytes, unless that type, after pointer indirection, was pinned.
func Encode(v any) ([]byte, error) {
	t := indirect(reflect.TypeOf(v))
	if _, ok := pinned.Load(t); !ok {
		return nil, fmt.Errorf("wire: encode %v: type not pinned", t)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: encode %v: %w", t, err)
	}
	return buf.Bytes(), nil
}

// Decode gob-decodes b into v, which must be a pointer.
func Decode(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode %T: %w", v, err)
	}
	return nil
}

func indirect(t reflect.Type) reflect.Type {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t
}
