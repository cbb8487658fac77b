package netsim

import (
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/sgxcrypto"
)

// senderProgram is the Table 2 workload: a server program that sends MTU
// packets from inside an enclave, singly or batched, with or without
// symmetric encryption.
func senderProgram() *core.Program {
	return &core.Program{
		Name:    "packet-sender",
		Version: "1",
		Handlers: map[string]core.Handler{
			// arg: [0]=count, [1]=crypto flag, [2:6]=connID
			"send": func(env *core.Env, arg []byte) ([]byte, error) {
				count := int(arg[0])
				withCrypto := arg[1] == 1
				connID := uint32(arg[2]) | uint32(arg[3])<<8 | uint32(arg[4])<<16 | uint32(arg[5])<<24
				var c *sgxcrypto.Cipher
				if withCrypto {
					key, err := env.GetKey(core.KeySealEnclave)
					if err != nil {
						return nil, err
					}
					// Cipher context set up once per call: this is what
					// amortizes over a batch (Table 2).
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
					_, err := env.OCall("net.send", EncodeSend(connID, mk()))
					return nil, err
				}
				packets := make([][]byte, count)
				for i := range packets {
					packets[i] = mk()
				}
				_, err := env.OCall("net.batch", EncodeBatch(connID, packets))
				return nil, err
			},
		},
	}
}

// runSend launches the sender enclave, wires its shim, and returns the
// instruction tally of sending count packets. The EGETKEY SGX instruction
// used for key derivation in the crypto path is subtracted so the tally
// isolates the transmission itself, as the paper's table does.
func runSend(t *testing.T, count int, withCrypto bool) core.Tally {
	t.Helper()
	n := New()
	src, err := n.AddHost("src", core.PlatformConfig{EPCFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AddHost("dst", core.PlatformConfig{EPCFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	l, err := dst.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan int, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
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
		t.Fatal(err)
	}
	enc, err := src.Platform().Launch(senderProgram(), signer)
	if err != nil {
		t.Fatal(err)
	}
	shim := NewIOShim(src, enc.Meter())
	enc.BindHost(shim)
	conn, err := src.Dial("dst", "sink")
	if err != nil {
		t.Fatal(err)
	}
	id := shim.Adopt(conn)

	enc.Meter().SnapshotAndReset()
	arg := []byte{byte(count), 0, byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)}
	if withCrypto {
		arg[1] = 1
	}
	if _, err := enc.Call("send", arg); err != nil {
		t.Fatal(err)
	}
	tally := enc.Meter().Snapshot()
	if withCrypto {
		tally.SGXU-- // EGETKEY for the session key, not part of Table 2
	}
	if got := <-received; got != count {
		t.Fatalf("sink received %d/%d packets", got, count)
	}
	return tally
}

// TestTable2PacketTransmission reproduces Table 2 of the paper: the
// SGX(U) column exactly, the normal column within 1%.
func TestTable2PacketTransmission(t *testing.T) {
	cases := []struct {
		count      int
		crypto     bool
		wantSGX    uint64
		wantNormal uint64 // paper's value
	}{
		{1, false, 6, 13_000},
		{1, true, 6, 97_000},
		{100, false, 204, 136_000},
		{100, true, 204, 972_000},
	}
	for _, c := range cases {
		got := runSend(t, c.count, c.crypto)
		if got.SGXU != c.wantSGX {
			t.Errorf("count=%d crypto=%v: SGX(U)=%d, want %d", c.count, c.crypto, got.SGXU, c.wantSGX)
		}
		lo := c.wantNormal * 98 / 100
		hi := c.wantNormal * 102 / 100
		if got.Normal < lo || got.Normal > hi {
			t.Errorf("count=%d crypto=%v: normal=%d, want %d ±2%%", c.count, c.crypto, got.Normal, c.wantNormal)
		}
	}
}

// TestBatchingAmortizesIO checks the paper's §5 conclusion: "while the
// cost of a single I/O operation is high, the cost can be amortized with
// batched I/O" — per-packet cost in a 100-batch must be well under half
// the single-packet cost.
func TestBatchingAmortizesIO(t *testing.T) {
	single := runSend(t, 1, false)
	batch := runSend(t, 100, false)
	perPacket := batch.Normal / 100
	if perPacket*2 >= single.Normal {
		t.Fatalf("batching did not amortize: single=%d, batched per-packet=%d", single.Normal, perPacket)
	}
}

func TestIOShimErrors(t *testing.T) {
	n := New()
	h, err := n.AddHost("h", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	shim := NewIOShim(h, core.NewMeter())
	if _, err := shim.OCall("net.send", []byte{1}); err == nil {
		t.Fatal("short arg accepted")
	}
	if _, err := shim.OCall("net.send", EncodeSend(99, []byte("x"))); err == nil {
		t.Fatal("unknown connID accepted")
	}
	if _, err := shim.OCall("net.dial", []byte("no-separator")); err == nil {
		t.Fatal("malformed dial accepted")
	}
	if _, err := shim.OCall("nope", nil); err == nil {
		t.Fatal("unknown service accepted")
	}
	// A shim serves its own prefix only, as a one-mount MultiHost would.
	if _, err := shim.OCall("send", EncodeSend(99, []byte("x"))); err == nil || !strings.Contains(err.Error(), "unknown OCALL service") {
		t.Fatalf("unprefixed service: %v", err)
	}
	if _, err := NewMsgShim(h, core.NewMeter()).OCall("net.close", EncodeSend(99, nil)); err == nil || !strings.Contains(err.Error(), "unknown OCALL service") {
		t.Fatalf("message shim served net.close: %v", err)
	}
	if _, err := shim.OCall("net.batch", EncodeSend(99, nil)); err == nil {
		t.Fatal("batch on unknown conn accepted")
	}
}

func TestIOShimDialAndRecv(t *testing.T) {
	n := New()
	a, _ := n.AddHost("a", core.PlatformConfig{EPCFrames: 64})
	b, _ := n.AddHost("b", core.PlatformConfig{EPCFrames: 64})
	l, _ := b.Listen("svc")
	go l.Serve(func(c *Conn) {
		m, err := c.Recv()
		if err != nil {
			return
		}
		c.Send(append([]byte("pong:"), m...))
	})
	shim := NewIOShim(a, core.NewMeter())
	idb, err := shim.OCall("net.dial", []byte("b|svc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shim.OCall("net.send", append(idb, []byte("ping")...)); err != nil {
		t.Fatal(err)
	}
	reply, err := shim.OCall("net.recv", idb)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong:ping" {
		t.Fatalf("reply = %q", reply)
	}
	if _, err := shim.OCall("net.close", idb); err != nil {
		t.Fatal(err)
	}
}

func TestMultiHostRouting(t *testing.T) {
	var m MultiHost
	m.Mount("net.", core.HostFunc(func(s string, a []byte) ([]byte, error) { return []byte("net"), nil }))
	m.Mount("net.special", core.HostFunc(func(s string, a []byte) ([]byte, error) { return []byte("special"), nil }))
	m.Mount("app.", core.HostFunc(func(s string, a []byte) ([]byte, error) { return []byte("app"), nil }))
	if out, _ := m.OCall("net.send", nil); string(out) != "net" {
		t.Fatalf("net.send → %q", out)
	}
	if out, _ := m.OCall("net.special.x", nil); string(out) != "special" {
		t.Fatal("longest prefix must win")
	}
	if out, _ := m.OCall("app.thing", nil); string(out) != "app" {
		t.Fatalf("app.thing → %q", out)
	}
	if _, err := m.OCall("other", nil); err == nil {
		t.Fatal("unmounted service accepted")
	}
}

// switchlessHost is a host that serves every service over a ring.
type switchlessHost struct{ core.HostFunc }

func (switchlessHost) Switchless(string) bool { return true }

func TestMultiHostSwitchlessAsksMountedHost(t *testing.T) {
	echo := core.HostFunc(func(s string, a []byte) ([]byte, error) { return a, nil })
	var m MultiHost
	m.Mount("net.", switchlessHost{echo})
	m.Mount("tor.", echo)
	for svc, want := range map[string]bool{"net.send": true, "tor.dial": false, "other": false} {
		if got := m.Switchless(svc); got != want || core.IsSwitchless(&m, svc) != want {
			t.Errorf("Switchless(%q) = %v, want %v", svc, got, want)
		}
	}
}

// countProbe counts observations of one kind.
type countProbe struct {
	kind string
	n    atomic.Uint64
}

func (p *countProbe) Observe(kind string, n uint64) {
	if kind == p.kind {
		p.n.Add(n)
	}
}

// TestPacketCrossingKind: the data-plane shim reports one
// core.KindPacketCrossing per packet that crosses by itself, exactly
// where it charges SGXInstIOPerPacket; batched sends and the message
// shim charge none and report none.
func TestPacketCrossingKind(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.AddHost("a", core.PlatformConfig{EPCFrames: 64})
	b, _ := n.AddHost("b", core.PlatformConfig{EPCFrames: 64})
	l, _ := b.Listen("svc")
	go l.Serve(func(c *Conn) {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
			c.Send([]byte("ack"))
		}
	})
	probe := &countProbe{kind: core.KindPacketCrossing}
	a.Platform().SetProbe(probe)
	meter := core.NewMeter()
	check := func(what string, packets uint64) {
		t.Helper()
		if got := probe.n.Load(); got != packets || meter.SGX() != core.SGXInstIOPerPacket*packets {
			t.Fatalf("%s: %d packet crossings and %d SGX(U), want %d and %d",
				what, got, meter.SGX(), packets, core.SGXInstIOPerPacket*packets)
		}
	}
	shim := NewIOShim(a, meter)
	id, err := shim.OCall("net.dial", []byte("b|svc"))
	if err != nil {
		t.Fatal(err)
	}
	check("dial", 0)
	shim.OCall("net.send", append(id, 'x'))
	shim.OCall("net.batch", EncodeBatch(binary.LittleEndian.Uint32(id), [][]byte{{1}, {2}}))
	shim.OCall("net.recv", id)
	check("unbatched", 4)
	shim.SetBatched(4)
	shim.OCall("net.send", append(id, 'y'))
	check("batched", 4)
	msg := NewMsgShim(a, meter)
	mid, err := msg.OCall("msg.dial", []byte("b|svc"))
	if err != nil {
		t.Fatal(err)
	}
	msg.OCall("msg.send", append(mid, 'z'))
	check("message shim", 4)
}
