package smpc

import (
	"fmt"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/wire"
)

// Two-party GMW evaluation (semi-honest model, as in the SMPC routing
// proposal this baseline stands in for). Party 0 connects to party 1
// over a netsim connection; wire values are XOR-shared; XOR and NOT
// gates are local; each AND gate costs one 1-out-of-4 oblivious
// transfer, whose public-key operations dominate the instruction count.

// Party identifies a protocol role.
type Party int

// wire protocol messages
type gmwInputShares struct {
	Shares []bool // the other party's shares of my inputs
}

type gmwAND struct {
	Msg1 otMsg1
}

type gmwANDPKs struct {
	Msg2 otMsg2
}

type gmwANDEnc struct {
	Msg3 otMsg3
}

type gmwOutputs struct {
	Shares []bool
}

func init() {
	wire.Pin(gmwInputShares{}, gmwAND{}, gmwANDPKs{}, gmwANDEnc{}, gmwOutputs{})
}

func sendGob(conn *netsim.Conn, v any) error {
	raw, err := wire.Encode(v)
	if err != nil {
		return err
	}
	return conn.Send(raw)
}

func recvGob(conn *netsim.Conn, v any) error {
	raw, err := conn.Recv()
	if err != nil {
		return err
	}
	return wire.Decode(raw, v)
}

// Engine evaluates circuits as one of the two parties.
type Engine struct {
	party  Party
	conn   *netsim.Conn
	meter  *core.Meter
	params *sgxcrypto.DHParams
}

// NewEngine creates a party engine over an established connection. Both
// parties must use the same circuit and call Run concurrently.
func NewEngine(party Party, conn *netsim.Conn, meter *core.Meter) *Engine {
	return &Engine{party: party, conn: conn, meter: meter, params: sgxcrypto.StandardGroup()}
}

// Run evaluates the circuit on this party's private inputs and returns
// the reconstructed output bits. Both parties receive the outputs.
func (e *Engine) Run(c *Circuit, inputs []bool) ([]bool, error) {
	myWidth, otherWidth := c.NumInputs0, c.NumInputs1
	if e.party == 1 {
		myWidth, otherWidth = otherWidth, myWidth
	}
	if len(inputs) != myWidth {
		return nil, fmt.Errorf("smpc: party %d input width %d, want %d", e.party, len(inputs), myWidth)
	}

	// Share inputs: for each of my input bits, draw a random share for
	// the other party; keep bit ⊕ share.
	myShares := make([]bool, len(inputs))
	theirShareOfMine := make([]bool, len(inputs))
	for i, bit := range inputs {
		r, err := randBit()
		if err != nil {
			return nil, err
		}
		theirShareOfMine[i] = r
		myShares[i] = bit != r
	}
	// Exchange: party 0 sends first (deterministic order avoids
	// deadlock on the synchronous conn).
	var theirs gmwInputShares
	if e.party == 0 {
		if err := sendGob(e.conn, gmwInputShares{Shares: theirShareOfMine}); err != nil {
			return nil, err
		}
		if err := recvGob(e.conn, &theirs); err != nil {
			return nil, err
		}
	} else {
		if err := recvGob(e.conn, &theirs); err != nil {
			return nil, err
		}
		if err := sendGob(e.conn, gmwInputShares{Shares: theirShareOfMine}); err != nil {
			return nil, err
		}
	}
	if len(theirs.Shares) != otherWidth {
		return nil, fmt.Errorf("smpc: peer sent %d input shares, want %d", len(theirs.Shares), otherWidth)
	}

	// Lay out wire shares: inputs of party 0 first, then party 1.
	w := make([]bool, c.NumWires())
	if e.party == 0 {
		copy(w, myShares)
		copy(w[c.NumInputs0:], theirs.Shares)
	} else {
		copy(w, theirs.Shares)
		copy(w[c.NumInputs0:], myShares)
	}

	for _, g := range c.Gates {
		switch g.Kind {
		case GateXOR:
			w[g.Out] = w[g.A] != w[g.B]
		case GateNOT:
			// Exactly one party flips its share.
			if e.party == 0 {
				w[g.Out] = !w[g.A]
			} else {
				w[g.Out] = w[g.A]
			}
		case GateAND:
			out, err := e.andGate(w[g.A], w[g.B])
			if err != nil {
				return nil, fmt.Errorf("smpc: AND gate: %w", err)
			}
			w[g.Out] = out
		}
	}

	// Output reconstruction: exchange output shares.
	mine := gmwOutputs{Shares: make([]bool, len(c.Outputs))}
	for i, o := range c.Outputs {
		mine.Shares[i] = w[o]
	}
	var peer gmwOutputs
	if e.party == 0 {
		if err := sendGob(e.conn, mine); err != nil {
			return nil, err
		}
		if err := recvGob(e.conn, &peer); err != nil {
			return nil, err
		}
	} else {
		if err := recvGob(e.conn, &peer); err != nil {
			return nil, err
		}
		if err := sendGob(e.conn, mine); err != nil {
			return nil, err
		}
	}
	if len(peer.Shares) != len(mine.Shares) {
		return nil, fmt.Errorf("smpc: output share count mismatch")
	}
	out := make([]bool, len(mine.Shares))
	for i := range out {
		out[i] = mine.Shares[i] != peer.Shares[i]
	}
	return out, nil
}

// andGate evaluates one AND under XOR sharing. Party 0 is the OT sender:
// it draws a random output share r and offers the table
// t[x][y] = r ⊕ ((a0⊕x) ∧ (b0⊕y)); party 1 selects with (a1, b1).
func (e *Engine) andGate(a, b bool) (bool, error) {
	if e.party == 0 {
		r, err := randBit()
		if err != nil {
			return false, err
		}
		var table [4]byte
		for x := 0; x < 2; x++ {
			for y := 0; y < 2; y++ {
				v := (a != (x == 1)) && (b != (y == 1))
				bit := r != v
				if bit {
					table[x*2+y] = 1
				}
			}
		}
		sender, msg1, err := newOTSender(e.meter, e.params)
		if err != nil {
			return false, err
		}
		if err := sendGob(e.conn, gmwAND{Msg1: msg1}); err != nil {
			return false, err
		}
		var pks gmwANDPKs
		if err := recvGob(e.conn, &pks); err != nil {
			return false, err
		}
		msg3, err := sender.send(e.meter, pks.Msg2, table)
		if err != nil {
			return false, err
		}
		if err := sendGob(e.conn, gmwANDEnc{Msg3: msg3}); err != nil {
			return false, err
		}
		return r, nil
	}

	// Party 1: receiver with choice (a, b).
	choice := 0
	if a {
		choice += 2
	}
	if b {
		choice++
	}
	var m1 gmwAND
	if err := recvGob(e.conn, &m1); err != nil {
		return false, err
	}
	rcv, msg2, err := newOTReceiver(e.meter, e.params, choice, m1.Msg1)
	if err != nil {
		return false, err
	}
	if err := sendGob(e.conn, gmwANDPKs{Msg2: msg2}); err != nil {
		return false, err
	}
	var m3 gmwANDEnc
	if err := recvGob(e.conn, &m3); err != nil {
		return false, err
	}
	v, err := rcv.finish(e.meter, m3.Msg3)
	if err != nil {
		return false, err
	}
	return v == 1, nil
}

// RoutePrefer runs the private route comparison end to end between two
// hosts: party 0 holds (prefA, lenA), party 1 holds (prefB, lenB), both
// learn only the preference bit. Returns the decision and the combined
// instruction tally of both parties.
func RoutePrefer(net *netsim.Network, host0, host1 *netsim.SimHost,
	prefA, lenA, prefB, lenB uint64, bits int) (bool, core.Tally, error) {
	if bits < 64 {
		for _, v := range []uint64{prefA, lenA, prefB, lenB} {
			if v >= 1<<uint(bits) {
				return false, core.Tally{}, fmt.Errorf("smpc: value %d exceeds %d-bit circuit width", v, bits)
			}
		}
	}
	c := RoutePreferCircuit(bits, bits)
	l, err := host1.Listen("smpc")
	if err != nil {
		return false, core.Tally{}, err
	}
	defer l.Close()

	m0, m1 := core.NewMeter(), core.NewMeter()
	type res struct {
		out []bool
		err error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		eng := NewEngine(1, conn, m1)
		in := append(Bits(prefB, bits), Bits(lenB, bits)...)
		out, err := eng.Run(c, in)
		ch <- res{out, err}
	}()
	conn, err := host0.Dial(host1.Name(), "smpc")
	if err != nil {
		return false, core.Tally{}, err
	}
	defer conn.Close()
	eng := NewEngine(0, conn, m0)
	in := append(Bits(prefA, bits), Bits(lenA, bits)...)
	out0, err := eng.Run(c, in)
	if err != nil {
		return false, core.Tally{}, err
	}
	r := <-ch
	if r.err != nil {
		return false, core.Tally{}, r.err
	}
	if len(out0) != 1 || len(r.out) != 1 || out0[0] != r.out[0] {
		return false, core.Tally{}, fmt.Errorf("smpc: parties disagree on output")
	}
	return out0[0], m0.Snapshot().Add(m1.Snapshot()), nil
}
