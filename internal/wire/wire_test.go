package wire

import (
	"reflect"
	"strings"
	"testing"
)

type pinnedMsg struct {
	ID    int
	Name  string
	Items []uint32
	Flags map[string]bool
}

type pinnedItem struct{ Name string }

type unpinnedMsg struct{ ID int }

func init() {
	Pin(pinnedMsg{}, []pinnedItem{{}})
}

func TestRoundTrip(t *testing.T) {
	in := pinnedMsg{ID: 7, Name: "relay", Items: []uint32{1, 2, 1 << 31}, Flags: map[string]bool{"exit": true}}
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out pinnedMsg
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestEncodeRefusesUnpinned(t *testing.T) {
	for _, c := range []struct {
		v    any
		name string
	}{
		{unpinnedMsg{ID: 1}, "wire.unpinnedMsg"},
		{&unpinnedMsg{ID: 1}, "wire.unpinnedMsg"},
		{[]pinnedMsg{{}}, "[]wire.pinnedMsg"},
		{nil, "<nil>"},
	} {
		raw, err := Encode(c.v)
		if err == nil || raw != nil {
			t.Fatalf("Encode(%T) = %d bytes, %v; want no bytes and an error", c.v, len(raw), err)
		}
		if !strings.Contains(err.Error(), c.name) {
			t.Fatalf("Encode(%T) error %q does not name %s", c.v, err, c.name)
		}
	}
}

// A pointer to a pinned type encodes as the type itself; a pinned slice
// type is accepted on its own.
func TestEncodeAcceptsPointerAndSlice(t *testing.T) {
	in := pinnedMsg{ID: 3}
	byValue, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	p := &in
	byPointer, err := Encode(&p)
	if err != nil {
		t.Fatal(err)
	}
	if string(byValue) != string(byPointer) {
		t.Fatalf("pointer encodes as %x, value as %x", byPointer, byValue)
	}
	items := []pinnedItem{{"a"}, {"b"}}
	raw, err := Encode(items)
	if err != nil {
		t.Fatal(err)
	}
	var out []pinnedItem
	if err := Decode(raw, &out); err != nil || !reflect.DeepEqual(out, items) {
		t.Fatalf("slice round trip: %+v, %v", out, err)
	}
}
