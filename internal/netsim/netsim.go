// Package netsim is the network substrate the paper's applications run on:
// an in-memory message network connecting simulated SGX hosts. It provides
// addressable hosts, reliable bidirectional connections (a net.Conn-like
// Send/Recv pair), a request/response helper, link statistics, and the
// enclave packet-I/O shim whose cost accounting reproduces Table 2.
//
// The substrate is deliberately synchronous-friendly: connections are
// backed by buffered channels, so protocol code can be written as
// straight-line request/response logic (the style of the paper's
// controller and attestation flows) while still supporting concurrent
// hosts.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sgxnet/internal/core"
)

// Network connects hosts by name. Its owner calls Close once the
// deployment is done with, so the goroutines parked on its listeners and
// connections return and the whole deployment can be collected.
type Network struct {
	mu    sync.Mutex
	hosts map[string]*SimHost
	// conns holds every live connection by its Key, pointing at the
	// dialing end; a connection leaves as soon as either end closes.
	conns map[*sync.Once]*Conn
	// closed is set by Close before it visits the hosts and the
	// registry; Dial and Listen check it, so nothing registers after.
	closed atomic.Bool

	// faults, when set, is the installed disturbance plan consulted on
	// every Send (see faults.go).
	faults atomic.Pointer[FaultSchedule]

	// Stats
	messages atomic.Uint64
	bytes    atomic.Uint64
}

// New creates an empty network.
func New() *Network {
	return &Network{hosts: make(map[string]*SimHost), conns: make(map[*sync.Once]*Conn)}
}

// Close tears the network down: every listener stops accepting and every
// live connection closes, so goroutines parked in Accept or Recv return
// ErrClosed, and Dial and Listen fail from then on. Close does not wait
// for those goroutines (an enclave call may be parked in one), so call
// it after the deployment's last flush and meter read, or a charge from
// a closing serve could land in a reported tally. Closing twice is
// harmless.
func (n *Network) Close() {
	n.closed.Store(true)
	n.mu.Lock()
	hosts := make([]*SimHost, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	conns := make([]*Conn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, h := range hosts {
		h.closeListeners()
	}
	for _, c := range conns {
		c.Close()
	}
}

// SetFaults installs a fault schedule; nil removes it. Install before
// traffic starts — the virtual clock counts from the first Send the
// schedule observes.
func (n *Network) SetFaults(s *FaultSchedule) { n.faults.Store(s) }

// Faults returns the installed fault schedule, if any.
func (n *Network) Faults() *FaultSchedule { return n.faults.Load() }

// Messages reports the total messages delivered.
func (n *Network) Messages() uint64 { return n.messages.Load() }

// Bytes reports the total payload bytes delivered.
func (n *Network) Bytes() uint64 { return n.bytes.Load() }

// SimHost is one machine on the network: an addressable node that owns a
// simulated SGX platform and a set of listening services.
type SimHost struct {
	name string
	net  *Network
	plat *core.Platform
	down atomic.Bool

	mu        sync.Mutex
	listeners map[string]*Listener
}

// AddHost creates a host with a fresh SGX platform.
func (n *Network) AddHost(name string, cfg core.PlatformConfig) (*SimHost, error) {
	plat, err := core.NewPlatform(name, cfg)
	if err != nil {
		return nil, err
	}
	return n.AddHostWithPlatform(name, plat)
}

// AddHostWithPlatform registers a host backed by an existing platform.
func (n *Network) AddHostWithPlatform(name string, plat *core.Platform) (*SimHost, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate host %q", name)
	}
	h := &SimHost{name: name, net: n, plat: plat, listeners: make(map[string]*Listener)}
	n.hosts[name] = h
	return h, nil
}

// RemoveHost drops a host from the network (modelling a crash — the
// denial-of-service an SGX adversary can always inflict). Its listeners
// stop accepting.
func (n *Network) RemoveHost(name string) {
	n.mu.Lock()
	h := n.hosts[name]
	delete(n.hosts, name)
	n.mu.Unlock()
	if h != nil {
		h.closeListeners()
	}
}

// Crash takes a host down without deregistering it: listeners close,
// live connections touching the host die, and dials to it fail with
// ErrHostDown until Restart. This models a reboot rather than
// RemoveHost's permanent disappearance.
func (n *Network) Crash(name string) {
	n.mu.Lock()
	h := n.hosts[name]
	var victims []*Conn
	for _, c := range n.conns {
		if c.local == name || c.remote == name {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	if h == nil {
		return
	}
	h.down.Store(true)
	h.closeListeners()
}

// Restart brings a crashed host back up. Reachability returns; services
// must be re-registered with Listen (a reboot forgets its sockets).
func (n *Network) Restart(name string) {
	n.mu.Lock()
	h := n.hosts[name]
	n.mu.Unlock()
	if h != nil {
		h.down.Store(false)
	}
}

// Down reports whether a host is currently crashed.
func (n *Network) Down(name string) bool {
	n.mu.Lock()
	h := n.hosts[name]
	n.mu.Unlock()
	return h != nil && h.down.Load()
}

// Host looks up a host by name.
func (n *Network) Host(name string) (*SimHost, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	return h, ok
}

// Hosts returns the names of all registered hosts.
func (n *Network) Hosts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		out = append(out, name)
	}
	return out
}

// Name returns the host's network name.
func (h *SimHost) Name() string { return h.name }

// Platform returns the host's SGX platform.
func (h *SimHost) Platform() *core.Platform { return h.plat }

// Network returns the network the host is attached to.
func (h *SimHost) Network() *Network { return h.net }

// closeListeners stops every listener on the host and forgets them.
func (h *SimHost) closeListeners() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, l := range h.listeners {
		l.close()
	}
	h.listeners = map[string]*Listener{}
}

// connBuf is the per-direction channel buffer of a connection.
const connBuf = 256

// Conn is one end of a reliable bidirectional connection.
type Conn struct {
	net    *Network
	local  string
	remote string
	send   chan []byte
	recv   chan []byte
	closed chan struct{}
	once   *sync.Once // shared by both ends

	faultMu sync.Mutex
	corrupt int // messages to corrupt (bit-flip) before delivery
	drop    int // messages to silently drop
}

// InjectCorrupt flips one bit in each of the next n payloads sent from
// this end — an on-path attacker or a faulty link. Protocol code is
// expected to detect it (MACs, onion layers, record tags).
func (c *Conn) InjectCorrupt(n int) {
	c.faultMu.Lock()
	c.corrupt += n
	c.faultMu.Unlock()
}

// InjectDrop silently discards the next n payloads sent from this end.
func (c *Conn) InjectDrop(n int) {
	c.faultMu.Lock()
	c.drop += n
	c.faultMu.Unlock()
}

// ErrClosed is returned on operations against a closed connection.
var ErrClosed = errors.New("netsim: connection closed")

// ErrNoRoute is returned when dialing an unknown host or service.
var ErrNoRoute = errors.New("netsim: no route to host/service")

// ErrHostDown is returned when dialing a crashed host.
var ErrHostDown = errors.New("netsim: host down")

// ErrTimeout is returned by RecvTimeout when the deadline expires. The
// connection stays usable — timeouts are how protocol drivers detect
// loss and decide to retry.
var ErrTimeout = errors.New("netsim: receive timed out")

// Send delivers a payload to the peer. The payload is copied.
func (c *Conn) Send(p []byte) error {
	cp := append([]byte(nil), p...)
	c.faultMu.Lock()
	if c.drop > 0 {
		c.drop--
		c.faultMu.Unlock()
		c.net.messages.Add(1) // the sender believes it sent
		return nil
	}
	if c.corrupt > 0 && len(cp) > 0 {
		c.corrupt--
		// Flip a bit near the head of the payload: fixed-size frames
		// (cells) are zero-padded at the tail, where a flip would be
		// invisible to the receiver.
		idx := 9
		if idx >= len(cp) {
			idx = len(cp) / 2
		}
		cp[idx] ^= 0x40
	}
	c.faultMu.Unlock()
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	if plan := c.net.faults.Load(); plan != nil {
		if !plan.process(c.net, c.local, c.remote, cp, c.deliver) {
			// Consumed by the schedule: dropped, held for reordering, or
			// delivered asynchronously after its scheduled delay.
			return nil
		}
	}
	select {
	case c.send <- cp:
		c.net.messages.Add(1)
		c.net.bytes.Add(uint64(len(p)))
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

// deliver pushes an (engine-scheduled) payload to the peer, dropping it
// if the connection has died in the meantime.
func (c *Conn) deliver(p []byte) {
	// Prefer the buffered channel even when the connection has closed:
	// Recv drains buffered payloads before reporting closure, so a
	// delayed in-flight message that lands just after a close is still
	// readable — like data flushed by TCP before a FIN.
	select {
	case c.send <- p:
		c.net.messages.Add(1)
		c.net.bytes.Add(uint64(len(p)))
		return
	default:
	}
	select {
	case c.send <- p:
		c.net.messages.Add(1)
		c.net.bytes.Add(uint64(len(p)))
	case <-c.closed:
	}
}

// Recv blocks for the next payload from the peer.
func (c *Conn) Recv() ([]byte, error) {
	select {
	case p, ok := <-c.recv:
		if !ok {
			return nil, ErrClosed
		}
		return p, nil
	case <-c.closed:
		// Drain anything already delivered before reporting closure.
		select {
		case p, ok := <-c.recv:
			if ok {
				return p, nil
			}
		default:
		}
		return nil, ErrClosed
	}
}

// RecvTimeout blocks for the next payload, giving up after d. A zero or
// negative d means no deadline. On ErrTimeout the connection remains
// usable; a late payload stays queued for the next receive.
func (c *Conn) RecvTimeout(d time.Duration) ([]byte, error) {
	if d <= 0 {
		return c.Recv()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case p, ok := <-c.recv:
		if !ok {
			return nil, ErrClosed
		}
		return p, nil
	case <-c.closed:
		select {
		case p, ok := <-c.recv:
			if ok {
				return p, nil
			}
		default:
		}
		return nil, ErrClosed
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// Close tears down both ends and drops the connection from the
// network's registry.
func (c *Conn) Close() {
	c.once.Do(func() {
		close(c.closed)
		c.net.mu.Lock()
		delete(c.net.conns, c.once)
		c.net.mu.Unlock()
	})
}

// Key identifies the connection: its two ends return the same key and
// no other connection's ends do. In-process peers can rendezvous on it
// without putting a message on the wire.
func (c *Conn) Key() any { return c.once }

// Request sends p and waits for a single reply — the request/response
// idiom used by the controller protocols.
func (c *Conn) Request(p []byte) ([]byte, error) {
	if err := c.Send(p); err != nil {
		return nil, err
	}
	return c.Recv()
}

// Listener accepts inbound connections on a (host, service) address.
type Listener struct {
	host    *SimHost
	service string
	backlog chan *Conn
	done    chan struct{}
	once    sync.Once
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close stops the listener and frees the service name for reuse.
func (l *Listener) Close() {
	l.close()
	if l.host != nil {
		l.host.mu.Lock()
		if l.host.listeners[l.service] == l {
			delete(l.host.listeners, l.service)
		}
		l.host.mu.Unlock()
	}
}

func (l *Listener) close() { l.once.Do(func() { close(l.done) }) }

// Listen registers a service on the host.
func (h *SimHost) Listen(service string) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Network.Close marks the network closed before it visits the hosts'
	// listeners, so one registered after this check is still closed.
	if h.net.closed.Load() {
		return nil, ErrClosed
	}
	if _, dup := h.listeners[service]; dup {
		return nil, fmt.Errorf("netsim: %s already listening on %q", h.name, service)
	}
	l := &Listener{host: h, service: service, backlog: make(chan *Conn, 64), done: make(chan struct{})}
	h.listeners[service] = l
	return l, nil
}

// Serve accepts connections and handles each in its own goroutine until
// the listener closes.
func (l *Listener) Serve(handle func(*Conn)) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go handle(c)
	}
}

// Dial opens a connection from this host to a service on a remote host.
func (h *SimHost) Dial(remote, service string) (*Conn, error) {
	h.net.mu.Lock()
	rh, ok := h.net.hosts[remote]
	h.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: host %q", ErrNoRoute, remote)
	}
	if h.down.Load() {
		return nil, fmt.Errorf("%w: %q (local)", ErrHostDown, h.name)
	}
	if rh.down.Load() {
		return nil, fmt.Errorf("%w: %q", ErrHostDown, remote)
	}
	rh.mu.Lock()
	l, ok := rh.listeners[service]
	rh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: service %q on %q", ErrNoRoute, service, remote)
	}
	a2b := make(chan []byte, connBuf)
	b2a := make(chan []byte, connBuf)
	closed := make(chan struct{})
	once := new(sync.Once)
	local := &Conn{net: h.net, local: h.name, remote: remote, send: a2b, recv: b2a, closed: closed, once: once}
	peer := &Conn{net: h.net, local: remote, remote: h.name, send: b2a, recv: a2b, closed: closed, once: once}
	// Register before the peer reaches the backlog: once accepted, either
	// end may close at once, and Close's delete must find the entry.
	h.net.mu.Lock()
	if h.net.closed.Load() {
		h.net.mu.Unlock()
		return nil, ErrClosed
	}
	h.net.conns[once] = local
	h.net.mu.Unlock()
	select {
	case l.backlog <- peer:
	case <-l.done:
		local.Close()
		return nil, ErrClosed
	}
	return local, nil
}
