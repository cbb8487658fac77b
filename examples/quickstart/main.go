// Quickstart: two SGX-enabled hosts, a remote attestation with
// Diffie-Hellman channel bootstrap, and one sealed message — the
// building block every application in the paper starts from (§2.2).
package main

import (
	"fmt"
	"log"

	"sgxnet"
)

func main() {
	log.SetFlags(0)

	// A simulated world: one architectural ("Intel") signer provisions
	// the quoting enclaves on every SGX host.
	net := sgxnet.NewNetwork()
	defer net.Close() // releases every listener, connection and goroutine on it
	arch, err := sgxnet.NewArchSigner()
	if err != nil {
		log.Fatal(err)
	}
	serverHost, err := sgxnet.NewSGXHost(net, "server", arch)
	if err != nil {
		log.Fatal(err)
	}
	clientHost, err := sgxnet.NewSGXHost(net, "client", arch)
	if err != nil {
		log.Fatal(err)
	}

	// The server enclave: an application program with the
	// attestation-target role mounted, plus one handler that answers
	// sealed requests over the attested channel.
	signer, err := sgxnet.NewSigner()
	if err != nil {
		log.Fatal(err)
	}
	tState := sgxnet.NewTargetState()
	serverProg := &sgxnet.Program{
		Name:    "quickstart-server",
		Version: "1.0",
		Handlers: map[string]sgxnet.Handler{
			"greet": func(env *sgxnet.Env, arg []byte) ([]byte, error) {
				// arg: connID(4) ‖ sealed request
				cid := uint32(arg[0]) | uint32(arg[1])<<8 | uint32(arg[2])<<16 | uint32(arg[3])<<24
				req, err := tState.Open(env.Meter(), cid, arg[4:])
				if err != nil {
					return nil, err
				}
				return tState.Seal(env.Meter(), cid, append([]byte("hello, "), req...))
			},
		},
	}
	sgxnet.AddTargetHandlers(serverProg, tState)
	server, err := serverHost.Platform().Launch(serverProg, signer)
	if err != nil {
		log.Fatal(err)
	}
	sShim := sgxnet.NewMsgShim(serverHost, server.Meter())
	server.BindHost(sShim)

	// The client enclave: challenger role, pinning the server's
	// community-verified measurement (the deterministic-build assumption
	// of §4 — anyone can compute it from the source).
	cState := sgxnet.NewChallengerState(sgxnet.AttestPolicy{
		AllowedEnclaves: []sgxnet.Measurement{sgxnet.MeasureProgram(serverProg)},
		RejectDebug:     true,
	})
	clientProg := &sgxnet.Program{Name: "quickstart-client", Version: "1.0",
		Handlers: map[string]sgxnet.Handler{}}
	sgxnet.AddChallengerHandlers(clientProg, cState)
	client, err := clientHost.Platform().Launch(clientProg, signer)
	if err != nil {
		log.Fatal(err)
	}
	cShim := sgxnet.NewMsgShim(clientHost, client.Meter())
	client.BindHost(cShim)

	// Wire up: the server accepts, attests as target, then serves sealed
	// requests.
	l, err := serverHost.Listen("greeter")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		cid, err := sgxnet.Respond(server, sShim, serverHost, conn)
		if err != nil {
			return
		}
		for {
			sealed, err := conn.Recv()
			if err != nil {
				return
			}
			arg := append([]byte{byte(cid), byte(cid >> 8), byte(cid >> 16), byte(cid >> 24)}, sealed...)
			reply, err := server.Call("greet", arg)
			if err != nil {
				return
			}
			if err := conn.Send(reply); err != nil {
				return
			}
		}
	}()

	// The client dials, attests the server (with DH → secure channel),
	// and sends a sealed greeting.
	conn, err := clientHost.Dial("server", "greeter")
	if err != nil {
		log.Fatal(err)
	}
	cid, identity, err := sgxnet.Challenge(client, cShim, conn, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attested server enclave: MRENCLAVE=%x…\n", identity.MREnclave[:8])

	sess, _ := cState.Session(cid)
	sealed, err := sess.Channel.Seal(client.Meter(), []byte("enclave world"))
	if err != nil {
		log.Fatal(err)
	}
	replySealed, err := conn.Request(sealed)
	if err != nil {
		log.Fatal(err)
	}
	reply, err := sess.Channel.Open(client.Meter(), replySealed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sealed reply: %q\n", reply)
	fmt.Printf("instruction bill — client: %v; server: %v\n",
		client.Meter().Snapshot(), server.Meter().Snapshot())
}
