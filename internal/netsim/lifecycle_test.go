package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Lifecycle: a network's memory must scale with its live connections,
// not with every connection ever made. A connection leaves the registry
// as soon as either end closes; Network.Close releases everything left.

// liveConns is the size of the network's connection registry.
func liveConns(n *Network) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// serveEcho answers each request on the listener's connections. With
// serverCloses, the server end closes right after its first reply.
func serveEcho(l *Listener, serverCloses bool, handlers *sync.WaitGroup) {
	go l.Serve(func(c *Conn) {
		defer handlers.Done()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
			if serverCloses {
				c.Close()
			}
		}
	})
}

func TestClosedConnectionsLeaveRegistry(t *testing.T) {
	n, hs := newNet(t, "a", "b")
	var handlers sync.WaitGroup
	for _, svc := range []string{"client-closes", "server-closes"} {
		l, err := hs["b"].Listen(svc)
		if err != nil {
			t.Fatal(err)
		}
		serveEcho(l, svc == "server-closes", &handlers)
	}
	const cycles = 10_000
	handlers.Add(cycles)
	for i := 0; i < cycles; i++ {
		svc := "client-closes"
		if i%2 == 1 {
			svc = "server-closes"
		}
		c, err := hs["a"].Dial("b", svc)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Request([]byte{byte(i)}); err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("cycle %d: got %v, %v", i, got, err)
		}
		c.Close()
	}
	handlers.Wait()
	if got := liveConns(n); got != 0 {
		t.Fatalf("%d registry entries after %d closed connections, want 0", got, cycles)
	}
}

func TestCrashClosesOnlyTheHostsConnections(t *testing.T) {
	n, hs := newNet(t, "a", "b", "c")
	accepted := make(map[string]*Conn)
	dialed := make(map[string]*Conn)
	for _, name := range []string{"b", "c"} {
		l, err := hs[name].Listen("svc")
		if err != nil {
			t.Fatal(err)
		}
		if dialed[name], err = hs["a"].Dial(name, "svc"); err != nil {
			t.Fatal(err)
		}
		if accepted[name], err = l.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	n.Crash("b")
	if _, err := accepted["b"].Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("crashed host's end: Recv = %v, want ErrClosed", err)
	}
	if err := dialed["b"].Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer of crashed host: Send = %v, want ErrClosed", err)
	}
	if err := dialed["c"].Send([]byte("live")); err != nil {
		t.Fatalf("connection to a healthy host: Send = %v", err)
	}
	if got, err := accepted["c"].Recv(); err != nil || string(got) != "live" {
		t.Fatalf("connection to a healthy host: Recv = %q, %v", got, err)
	}
	if got := liveConns(n); got != 1 {
		t.Fatalf("%d registry entries after the crash, want 1 (a→c)", got)
	}
}

func TestNetworkCloseReleasesEverything(t *testing.T) {
	n, hs := newNet(t, "a", "b")
	l, err := hs["b"].Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := hs["b"].Listen("idle")
	if err != nil {
		t.Fatal(err)
	}
	c, err := hs["a"].Dial("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}

	// Park one goroutine in each blocking call Close must release.
	errs := make(chan error, 3)
	go func() { _, err := idle.Accept(); errs <- err }()
	go func() { _, err := c.Recv(); errs <- err }()
	go func() { _, err := peer.Recv(); errs <- err }()

	n.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked call returned %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a goroutine is still parked after Network.Close")
		}
	}
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after Close = %v, want ErrClosed", err)
	}
	if got := liveConns(n); got != 0 {
		t.Fatalf("%d registry entries after Close, want 0", got)
	}
	n.Close() // a second Close is harmless
	if _, err := hs["b"].Listen("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Listen after Close = %v, want ErrClosed", err)
	}
	if _, err := hs["a"].Dial("b", "svc"); err == nil {
		t.Fatal("Dial after Close succeeded")
	}
}

// Network.Close racing live traffic: whatever interleaving the scheduler
// picks, every dialer returns, and no connection registered around the
// close survives it. Run under -race -count=10.
func TestNetworkCloseDuringTraffic(t *testing.T) {
	n, hs := newNet(t, "a", "b")
	l, err := hs["b"].Listen("echo")
	if err != nil {
		t.Fatal(err)
	}
	// Some dialed peers are still in the backlog when the listener
	// closes and never get a handler, so only the dialers are awaited.
	go l.Serve(func(c *Conn) {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	})

	const dialers = 8
	var wg sync.WaitGroup
	started := make(chan struct{}, dialers)
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; ; i++ {
				c, err := hs["a"].Dial("b", "echo")
				if err != nil {
					return
				}
				if i == 0 {
					started <- struct{}{}
				}
				if _, err := c.Request([]byte("ping")); err != nil {
					return
				}
				// Odd dialers abandon their connections open: only
				// Network.Close can release those.
				if d%2 == 0 {
					c.Close()
				}
			}
		}(d)
	}
	for d := 0; d < dialers; d++ {
		<-started
	}
	n.Close()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		done <- struct{}{}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a dialer is still running after Network.Close")
	}
	if got := liveConns(n); got != 0 {
		t.Fatalf("%d registry entries after Close, want 0", got)
	}
}
