package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sgxnet/internal/core"
)

// IOShim is the untrusted runtime's network service surface for an
// enclave: it implements core.Host and bridges OCALLs to netsim
// connections. Its cost accounting is the Table 2 model: every I/O OCALL
// charges a fixed overhead plus a per-packet cost, and each packet crosses
// the enclave boundary (2 SGX(U) instructions per packet) — so batched
// sends amortize the fixed part exactly as the paper reports.
//
// Services (argument encodings are little-endian):
//
//	net.dial   "remote|service"                 → connID (4 bytes)
//	net.send   connID(4) ‖ packet               → empty
//	net.batch  connID(4) ‖ n(4) ‖ n×(len(4)‖pkt) → empty
//	net.recv   connID(4)                        → packet
//	net.close  connID(4)                        → empty
type IOShim struct {
	host  *SimHost
	meter *core.Meter
	// boundarySGX is the per-packet SGX(U) charge. The data-plane shim
	// (NewIOShim) charges core.SGXInstIOPerPacket — packets cross the
	// enclave boundary individually. The control-plane shim (NewMsgShim)
	// charges none: control messages ride in the OCALL argument buffer,
	// inside the EEXIT/ERESUME pair Env.OCall already accounts.
	boundarySGX uint64
	prefix      string

	mu     sync.Mutex
	conns  map[uint32]*Conn
	nextID uint32

	// recvTimeout bounds every recv OCALL; 0 blocks forever (the seed's
	// behavior). A timed-out recv charges CostRecvTimeout — the enclave
	// re-entered just to learn nothing arrived — and returns ErrTimeout
	// so the protocol driver can retry.
	recvTimeout atomic.Int64

	// batchWin > 1 enables batched mode: outgoing packets ride the
	// switchless subsystem's shared ring instead of individual OCALL
	// buffers, so the per-call fixed cost is charged once per window of
	// batchWin sends and the per-packet boundary-crossing SGX charge is
	// dropped entirely (the data never crosses by itself; the ring
	// drain's amortized crossing, charged by internal/xcall, covers
	// it). Receives keep synchronous accounting: the host-side posting
	// into the response slot is still per-call work, and none of the
	// adopters batch their reads. Window progress evolves on the send
	// clock — deterministic, like the rest of the model.
	batchWin  atomic.Int64
	batchMu   sync.Mutex
	batchLeft int
}

// NewIOShim creates the data-plane shim for an enclave on the given host;
// I/O costs are charged to the supplied meter (normally the enclave's).
// Its services are net.dial / net.send / net.batch / net.recv / net.close.
func NewIOShim(host *SimHost, meter *core.Meter) *IOShim {
	return &IOShim{host: host, meter: meter, boundarySGX: core.SGXInstIOPerPacket,
		prefix: "net.", conns: make(map[uint32]*Conn), nextID: 1}
}

// NewMsgShim creates the control-plane shim (services msg.dial / msg.send
// / msg.recv / msg.close): same normal-instruction I/O costs, no
// per-packet boundary SGX charge.
func NewMsgShim(host *SimHost, meter *core.Meter) *IOShim {
	return &IOShim{host: host, meter: meter, boundarySGX: 0,
		prefix: "msg.", conns: make(map[uint32]*Conn), nextID: 1}
}

// Adopt registers an already-open connection with the shim and returns its
// connID, letting enclave code take over a connection the untrusted host
// accepted.
func (s *IOShim) Adopt(c *Conn) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.conns[id] = c
	return id
}

// Forget drops a connID, so the shim no longer holds its connection. A
// caller that adopted a connection for one exchange calls it when the
// exchange ends; the connection itself is closed by its owner.
func (s *IOShim) Forget(id uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, id)
}

// Conn returns the connection behind a connID.
func (s *IOShim) Conn(id uint32) (*Conn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.conns[id]
	return c, ok
}

var errBadIOArg = errors.New("netsim: malformed I/O OCALL argument")

// OCall implements core.Host.
func (s *IOShim) OCall(service string, arg []byte) ([]byte, error) {
	op := service
	if len(op) > len(s.prefix) && op[:len(s.prefix)] == s.prefix {
		op = op[len(s.prefix):]
	}
	switch op {
	case "dial":
		return s.dial(arg)
	case "send":
		return s.send(arg)
	case "batch":
		return s.batch(arg)
	case "recv":
		return s.recv(arg)
	case "close":
		return s.closeConn(arg)
	default:
		return nil, fmt.Errorf("netsim: unknown OCALL service %q", service)
	}
}

func (s *IOShim) dial(arg []byte) ([]byte, error) {
	s.meter.ChargeNormal(core.CostIOCallFixed)
	var remote, svc string
	for i := 0; i < len(arg); i++ {
		if arg[i] == '|' {
			remote, svc = string(arg[:i]), string(arg[i+1:])
			break
		}
	}
	if remote == "" || svc == "" {
		return nil, errBadIOArg
	}
	c, err := s.host.Dial(remote, svc)
	if err != nil {
		return nil, err
	}
	id := s.Adopt(c)
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, id)
	return out, nil
}

func (s *IOShim) lookup(arg []byte) (*Conn, []byte, error) {
	if len(arg) < 4 {
		return nil, nil, errBadIOArg
	}
	id := binary.LittleEndian.Uint32(arg[:4])
	c, ok := s.Conn(id)
	if !ok {
		return nil, nil, fmt.Errorf("netsim: unknown connID %d", id)
	}
	return c, arg[4:], nil
}

// SetBatched enables (window > 1) or disables (window <= 1) batched
// accounting for outgoing packets; see the batchWin field. Flushing an
// open window is the caller's job at phase boundaries (FlushBatch).
func (s *IOShim) SetBatched(window int) {
	if window <= 1 {
		window = 0
	}
	s.batchWin.Store(int64(window))
	if window == 0 {
		s.batchMu.Lock()
		s.batchLeft = 0
		s.batchMu.Unlock()
	}
}

// FlushBatch closes the current send window, if one is open: the next
// send pays the fixed per-call cost again. Flushing with no open
// window (zero-length batch) charges nothing.
func (s *IOShim) FlushBatch() {
	s.batchMu.Lock()
	s.batchLeft = 0
	s.batchMu.Unlock()
}

// chargePacket accounts one outgoing packet under the current mode.
func (s *IOShim) chargePacket() {
	if w := s.batchWin.Load(); w > 1 {
		s.batchMu.Lock()
		if s.batchLeft == 0 {
			s.meter.ChargeNormal(core.CostIOCallFixed)
			s.batchLeft = int(w)
		}
		s.batchLeft--
		s.batchMu.Unlock()
		s.meter.ChargeNormal(core.CostIOPerPacket)
		return
	}
	s.meter.ChargeNormal(core.CostIOCallFixed + core.CostIOPerPacket)
	s.meter.ChargeSGX(s.boundarySGX)
}

func (s *IOShim) send(arg []byte) ([]byte, error) {
	c, pkt, err := s.lookup(arg)
	if err != nil {
		return nil, err
	}
	s.chargePacket()
	return nil, c.Send(pkt)
}

func (s *IOShim) batch(arg []byte) ([]byte, error) {
	c, rest, err := s.lookup(arg)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, errBadIOArg
	}
	n := binary.LittleEndian.Uint32(rest[:4])
	rest = rest[4:]
	// In batched mode every packet goes through the windowed charge (a
	// zero-length batch is then free); otherwise the call's fixed cost
	// is paid once up front, per Table 2.
	batched := s.batchWin.Load() > 1
	if !batched {
		s.meter.ChargeNormal(core.CostIOCallFixed)
	}
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return nil, errBadIOArg
		}
		l := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint32(len(rest)) < l {
			return nil, errBadIOArg
		}
		if batched {
			s.chargePacket()
		} else {
			s.meter.ChargeNormal(core.CostIOPerPacket)
			s.meter.ChargeSGX(s.boundarySGX)
		}
		if err := c.Send(rest[:l]); err != nil {
			return nil, err
		}
		rest = rest[l:]
	}
	return nil, nil
}

// SetRecvTimeout bounds all subsequent recv OCALLs through this shim;
// d <= 0 restores blocking receives.
func (s *IOShim) SetRecvTimeout(d time.Duration) { s.recvTimeout.Store(int64(d)) }

func (s *IOShim) recv(arg []byte) ([]byte, error) {
	c, _, err := s.lookup(arg)
	if err != nil {
		return nil, err
	}
	s.meter.ChargeNormal(core.CostIOCallFixed + core.CostIOPerPacket)
	s.meter.ChargeSGX(s.boundarySGX)
	s.meter.Exit() // parked on input: a Settle must not wait for the peer
	p, err := c.RecvTimeout(time.Duration(s.recvTimeout.Load()))
	s.meter.Enter()
	if errors.Is(err, ErrTimeout) {
		s.meter.ChargeNormal(core.CostRecvTimeout)
	}
	return p, err
}

func (s *IOShim) closeConn(arg []byte) ([]byte, error) {
	c, _, err := s.lookup(arg)
	if err != nil {
		return nil, err
	}
	c.Close()
	return nil, nil
}

// EncodeBatch builds the net.batch argument for a connection and packets.
func EncodeBatch(connID uint32, packets [][]byte) []byte {
	size := 8
	for _, p := range packets {
		size += 4 + len(p)
	}
	out := make([]byte, 0, size)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], connID)
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(packets)))
	out = append(out, b4[:]...)
	for _, p := range packets {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(p)))
		out = append(out, b4[:]...)
		out = append(out, p...)
	}
	return out
}

// EncodeSend builds the net.send / net.recv / net.close argument.
func EncodeSend(connID uint32, pkt []byte) []byte {
	out := make([]byte, 4+len(pkt))
	binary.LittleEndian.PutUint32(out[:4], connID)
	copy(out[4:], pkt)
	return out
}

// MultiHost fans OCALLs out to several core.Host implementations by
// service prefix, so one enclave can reach both the network shim and
// application-specific host services.
type MultiHost struct {
	mu    sync.RWMutex
	hosts []prefixed
}

type prefixed struct {
	prefix string
	h      core.Host
}

// Mount registers a host for services beginning with prefix. Longest
// prefix wins.
func (m *MultiHost) Mount(prefix string, h core.Host) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hosts = append(m.hosts, prefixed{prefix, h})
}

// OCall implements core.Host.
func (m *MultiHost) OCall(service string, arg []byte) ([]byte, error) {
	m.mu.RLock()
	best := -1
	for i, p := range m.hosts {
		if len(service) >= len(p.prefix) && service[:len(p.prefix)] == p.prefix {
			if best < 0 || len(p.prefix) > len(m.hosts[best].prefix) {
				best = i
			}
		}
	}
	var h core.Host
	if best >= 0 {
		h = m.hosts[best].h
	}
	m.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("netsim: no host mounted for service %q", service)
	}
	return h.OCall(service, arg)
}
