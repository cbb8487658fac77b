package eval

import (
	"encoding/binary"
	"fmt"
	"io"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/sgxcrypto"
)

// Table 2: instructions of packet transmission from inside an enclave,
// single vs batched, with and without symmetric crypto — the experiment
// behind the paper's "the cost can be amortized with batched I/O".

// Table2Row is one Table 2 cell pair.
type Table2Row struct {
	Packets int
	Crypto  bool
	Tally   core.Tally
}

// senderProgram is the paper's "simple server program which sends an MTU
// sized packet inside an enclave".
func senderProgram() *core.Program {
	return &core.Program{
		Name:    "packet-sender",
		Version: "1",
		Handlers: map[string]core.Handler{
			// send: count(4) ‖ crypto(1) ‖ connID(4)
			"send": func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 9 {
					return nil, fmt.Errorf("eval: short send arg")
				}
				count := int(binary.LittleEndian.Uint32(arg[:4]))
				withCrypto := arg[4] == 1
				connID := binary.LittleEndian.Uint32(arg[5:9])
				var c *sgxcrypto.Cipher
				if withCrypto {
					key, err := env.GetKey(core.KeySealEnclave)
					if err != nil {
						return nil, err
					}
					cc, err := sgxcrypto.NewAES(env.Meter(), key[:16])
					if err != nil {
						return nil, err
					}
					c = cc
				}
				pkt := make([]byte, core.MTUBytes)
				mk := func() []byte {
					if c != nil {
						return c.SealECB(env.Meter(), pkt)
					}
					return pkt
				}
				if count == 1 {
					_, err := env.OCall("net.send", netsim.EncodeSend(connID, mk()))
					return nil, err
				}
				packets := make([][]byte, count)
				for i := range packets {
					packets[i] = mk()
				}
				_, err := env.OCall("net.batch", netsim.EncodeBatch(connID, packets))
				return nil, err
			},
		},
	}
}

// MeasureSend runs one transmission and returns its tally (the EGETKEY
// used for session-key derivation in the crypto path is excluded, as the
// table isolates the transmission itself). With a trace, the measured
// enclave call is recorded as a "send" span on the given track. The
// track's run total is the raw meter tally of the call — the table's −1
// SGX(U) crypto adjustment is a rendering convention, not a cost the
// enclave avoided.
func MeasureSend(tr *obs.Trace, track string, count int, withCrypto bool) (core.Tally, error) {
	n := netsim.New()
	defer n.Close()
	src, err := n.AddHost("src", core.PlatformConfig{})
	if err != nil {
		return core.Tally{}, err
	}
	dst, err := n.AddHost("dst", core.PlatformConfig{})
	if err != nil {
		return core.Tally{}, err
	}
	l, err := dst.Listen("sink")
	if err != nil {
		return core.Tally{}, err
	}
	received := make(chan int, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			received <- 0
			return
		}
		got := 0
		for got < count {
			if _, err := c.Recv(); err != nil {
				break
			}
			got++
		}
		received <- got
	}()
	signer, err := core.NewSigner()
	if err != nil {
		return core.Tally{}, err
	}
	enc, err := src.Platform().Launch(senderProgram(), signer)
	if err != nil {
		return core.Tally{}, err
	}
	shim := netsim.NewIOShim(src, enc.Meter())
	var mh netsim.MultiHost
	mh.Mount("net.", shim)
	enc.BindHost(&mh)
	conn, err := src.Dial("dst", "sink")
	if err != nil {
		return core.Tally{}, err
	}
	id := shim.Adopt(conn)

	enc.Meter().SnapshotAndReset()
	arg := make([]byte, 9)
	binary.LittleEndian.PutUint32(arg[:4], uint32(count))
	if withCrypto {
		arg[4] = 1
	}
	binary.LittleEndian.PutUint32(arg[5:9], id)
	sp := tr.Begin(track, "send", enc.Meter())
	_, err = enc.Call("send", arg)
	sp.End()
	if err != nil {
		return core.Tally{}, err
	}
	tally := enc.Meter().Snapshot()
	tr.Total(track, "run.total", tally)
	if withCrypto {
		tally.SGXU--
	}
	if got := <-received; got != count {
		return tally, fmt.Errorf("eval: sink received %d/%d packets", got, count)
	}
	return tally, nil
}

// Table2 measures all four configurations, each recorded on a
// "table2/n=<packets>/crypto=<v>" track of the runner's trace.
func (r *Runner) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, cfg := range []struct {
		n      int
		crypto bool
	}{{1, false}, {1, true}, {100, false}, {100, true}} {
		track := fmt.Sprintf("table2/n=%d/crypto=%v", cfg.n, cfg.crypto)
		t, err := MeasureSend(r.trace, track, cfg.n, cfg.crypto)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Packets: cfg.n, Crypto: cfg.crypto, Tally: t})
	}
	return rows, nil
}

// RenderTable2 prints the table with reference values.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: instructions of packet transmission (measured vs paper)")
	tw := newTab(w)
	fmt.Fprintln(tw, "packets\tcrypto\tSGX(U)\tpaper\tnormal\tpaper")
	for _, r := range rows {
		key := fmt.Sprintf("%d/plain", r.Packets)
		cs := "w/o"
		if r.Crypto {
			key, cs = fmt.Sprintf("%d/crypto", r.Packets), "w/"
		}
		ref := paper.table2[key]
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%s\t%s\n",
			r.Packets, cs, r.Tally.SGXU, ref[0], fmtM(r.Tally.Normal), fmtM(ref[1]))
	}
	tw.Flush()
}
