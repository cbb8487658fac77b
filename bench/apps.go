package main

import (
	"fmt"
	"strings"
	"sync"

	"sgxnet/internal/core"
	"sgxnet/internal/eval/load"
	"sgxnet/internal/netsim"
	"sgxnet/internal/nfchain"
	"sgxnet/internal/ratls"
	"sgxnet/internal/tlslite"
)

// mix is a splitmix64 step keyed by (seed, i): every seeded choice the
// benchmark makes is a pure function of the seed and the request index.
func mix(seed uint64, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// --- tor-circuit ---

// torApp is the Tor rig: GETs over one 3-hop circuit of SGX onion
// routers with synchronous crossings. The rig checks every reply is
// "content:<request>".
type torApp struct{ rig *load.TorRig }

func prepareTor(seed int64, _ int) (deploy, error) {
	return func(*tracer, int) (app, error) {
		rig, err := load.NewTorRig(seed, nil)
		if err != nil {
			return nil, err
		}
		return &torApp{rig}, nil
	}, nil
}

func (a *torApp) Serve(i int) (core.Tally, error) { return a.rig.Serve(i) }
func (a *torApp) Flush() (core.Tally, error)      { return core.Tally{}, nil }
func (a *torApp) Check() (int, error)             { return 0, nil }
func (a *torApp) Diagnostics() []value            { return nil }
func (a *torApp) Close()                          { a.rig.Close() }

// --- sdn-fetch ---

// sdnApp is the SDN rig: route fetches by attested AS-local controllers
// from the SGX controller, the fetching AS chosen in seeded order. A
// fetch that returns an error is a failed request.
type sdnApp struct {
	rig  *load.SDNRig
	seed uint64
}

func prepareSDN(seed int64, _ int) (deploy, error) {
	return func(*tracer, int) (app, error) {
		rig, err := load.NewSDNRig()
		if err != nil {
			return nil, err
		}
		return &sdnApp{rig, uint64(seed)}, nil
	}, nil
}

// Serve has a seeded AS fetch; the rig reduces the index modulo its AS
// count.
func (a *sdnApp) Serve(i int) (core.Tally, error) {
	return a.rig.Serve(int(mix(a.seed, uint64(i)) >> 33))
}
func (a *sdnApp) Flush() (core.Tally, error) { return core.Tally{}, nil }
func (a *sdnApp) Check() (int, error)        { return 0, nil }
func (a *sdnApp) Diagnostics() []value       { return nil }
func (a *sdnApp) Close()                     { a.rig.Close() }

// --- nf-chain ---

// The chain workload is the depth-8 cell of the chain sweep: the same
// stage layout and filler-first rule table, at xcall batch 64 with 4096
// rules, fed a seeded packet mix.
const (
	chainRules = 4096
	chainBatch = 64
)

var chainPatterns = []string{"malware", "exfiltrate"}

// chainKeys are the session keys of key generation g.
func chainKeys(g byte) tlslite.Keys {
	var k tlslite.Keys
	for i := range k.EncC2S {
		k.EncC2S[i] = byte(i) + g
		k.EncS2C[i] = byte(i+16) + g
	}
	for i := range k.MacC2S {
		k.MacC2S[i] = byte(i+32) + g
		k.MacS2C[i] = byte(i+64) + g
	}
	return k
}

// chainStages builds the eight stages: two DPI passes under key
// generations 0 and 1, each followed by a NAT rewrite and a key
// rotation.
func chainStages() ([]nfchain.Stage, []string, error) {
	d0, err := nfchain.NewDPIStage("dpi", chainKeys(0), chainPatterns)
	if err != nil {
		return nil, nil, err
	}
	d1, err := nfchain.NewDPIStage("dpi2", chainKeys(1), chainPatterns)
	if err != nil {
		return nil, nil, err
	}
	stages := []nfchain.Stage{
		nfchain.NewClassify("classify"),
		nfchain.NewHeaderFilter("filter", 23),
		d0,
		nfchain.NewTransform("nat", 55555, 0),
		nfchain.NewReencrypt("reencrypt", chainKeys(0), chainKeys(1)),
		d1,
		nfchain.NewTransform("nat2", 55556, 0),
		nfchain.NewReencrypt("reencrypt2", chainKeys(1), chainKeys(2)),
	}
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	return stages, names, nil
}

// chainRuleText is the rule table: filler rules that never match
// (flows start at 10M) ahead of the five rules that route traffic, so
// every hop walks essentially the whole table.
func chainRuleText(rules int) string {
	base := []string{
		"at classify match proto=17 -> forward:dpi",
		"at classify match tag=dns -> mirror:dpi",
		"at filter match tag=blocked -> drop",
		"at dpi match tag=malware -> drop",
		"at dpi2 match tag=malware -> drop",
	}
	lines := make([]string, 0, rules)
	for i := 0; i < rules-len(base); i++ {
		lines = append(lines, fmt.Sprintf("at classify match flow=%d -> drop", 10_000_000+i))
	}
	return strings.Join(append(lines, base...), "\n")
}

// chainPacket is packet i of the seeded mix: destination port drawn
// from {443, 80, 53, 23} (23 is on the deny list), half of DNS over UDP,
// and a DPI pattern in one payload of eight. Payloads are TLS records
// sealed under generation-0 keys on a scratch meter, outside any bill.
func chainPacket(codec *tlslite.Codec, scratch *core.Meter, seed uint64, i int) (nfchain.Packet, error) {
	h := mix(seed, uint64(i))
	ports := [4]uint16{443, 80, 53, 23}
	dst := ports[h%4]
	proto := uint8(6)
	if dst == 53 && h>>8&1 == 0 {
		proto = 17
	}
	plain := fmt.Sprintf("chain packet %07d routine payload padding bytes", i)
	if h>>16%8 == 0 {
		plain = fmt.Sprintf("chain packet %07d carrying malware signature", i)
	}
	rec, err := codec.Seal(scratch, tlslite.ClientToServer, uint64(i), []byte(plain))
	return nfchain.Packet{Flow: uint32(i), SrcPort: uint16(40000 + i%20000), DstPort: dst, Proto: proto, Payload: rec}, err
}

// outcome is what one packet did to the chain's counters.
type outcome struct {
	pkt                                 int
	delivered, dropped, mirrored, alert uint64
}

func outcomeOf(pkt int, before, after nfchain.Stats) outcome {
	return outcome{pkt, after.Delivered - before.Delivered, after.Dropped - before.Dropped,
		after.Mirrored - before.Mirrored, after.Alerts - before.Alerts}
}

type chainApp struct {
	chain  *nfchain.Chain
	pool   []nfchain.Packet
	served []outcome // since the last Check
	stop   func()    // shuts the egress sink down

	nativeCycles, nativePkts uint64
}

// prepareChain generates the packets of the warm-up and of n measured
// requests once; every deployment of the round is fed the same packets.
func prepareChain(seed int64, n int) (deploy, error) {
	pool := make([]nfchain.Packet, warmupRequests+n)
	codec := tlslite.NewCodec(chainKeys(0))
	scratch := core.NewMeter()
	for i := range pool {
		var err error
		if pool[i], err = chainPacket(codec, scratch, uint64(seed), i); err != nil {
			return nil, err
		}
	}
	return func(tr *tracer, parent int) (app, error) { return newChainApp(pool, tr, parent) }, nil
}

func newChainApp(pool []nfchain.Packet, tr *tracer, parent int) (app, error) {
	id := tr.begin("chain.compile", parent, -1)
	stages, names, err := chainStages()
	var rs *nfchain.RuleSet
	if err == nil {
		rs, err = nfchain.CompileText(chainRuleText(chainRules), names)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("chain.deploy", parent, -1)
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	plat, err := core.NewPlatform("bench-chain", core.PlatformConfig{EPCFrames: 2048, ArchSigner: arch.MRSigner()})
	if err != nil {
		return nil, err
	}
	net := netsim.New()
	host, err := net.AddHostWithPlatform("chain", plat)
	if err != nil {
		return nil, err
	}
	stop, err := startSink(net)
	if err != nil {
		return nil, err
	}
	a := &chainApp{pool: pool, stop: stop}
	signer, err := core.NewSigner()
	if err != nil {
		a.Close()
		return nil, err
	}
	a.chain, err = nfchain.New(host, nfchain.Config{
		Stages:   stages,
		Rules:    rs,
		Batch:    chainBatch,
		Verifier: ratls.NewVerifier(headPolicy(), 1),
		Signer:   signer,
		Egress:   func() (*netsim.Conn, error) { return host.Dial("sink", "sink") },
	})
	tr.end(id)
	if err != nil {
		a.Close()
		return nil, err
	}

	// Every hop admits the chain head's certificate through the shared
	// verifier: one cold verification, then warm cache hits.
	id = tr.begin("chain.attest", parent, -1)
	cert, err := mintHead(plat, arch, signer)
	if err == nil {
		_, err = a.chain.Admit("chain-head", cert)
	}
	tr.end(id)
	if err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// startSink runs the egress sink: it accepts the hops' egress
// connections and discards what arrives. The returned stop closes the
// listener and every accepted connection and waits for the goroutines.
func startSink(net *netsim.Network) (stop func(), err error) {
	sink, err := net.AddHost("sink", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		return nil, err
	}
	l, err := sink.Listen("sink")
	if err != nil {
		return nil, err
	}
	var conns []*netsim.Conn
	var readers sync.WaitGroup
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return func() {
		l.Close()
		<-accepted // conns is complete once the acceptor has returned
		for _, c := range conns {
			c.Close()
		}
		readers.Wait()
	}, nil
}

// Serve routes packet i through the chain. The tally is the difference
// of the chain's summed meters around the call.
func (a *chainApp) Serve(i int) (core.Tally, error) {
	p := a.pool[i]
	t0, s0 := a.chain.Tally(), a.chain.Stats()
	err := a.chain.Process(&p)
	t1, s1 := a.chain.Tally(), a.chain.Stats()
	if err == nil {
		a.served = append(a.served, outcomeOf(i, s0, s1))
	}
	return t1.Sub(t0), err
}

func (a *chainApp) Flush() (core.Tally, error) {
	t0 := a.chain.Tally()
	err := a.chain.Flush()
	return a.chain.Tally().Sub(t0), err
}

// Check replays every packet served since the last Check through the
// native twin (same stages, same rules, no enclaves) and counts packets
// whose delivered/dropped/mirrored/alert outcome differs, or whose
// copies are not all accounted for (each packet and each mirror copy
// must end delivered or dropped).
func (a *chainApp) Check() (int, error) {
	stages, names, err := chainStages()
	if err != nil {
		return 0, err
	}
	rs, err := nfchain.CompileText(chainRuleText(chainRules), names)
	if err != nil {
		return 0, err
	}
	nat, err := nfchain.NewNative(stages, rs, nil, nil, nil, nil)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, got := range a.served {
		p := a.pool[got.pkt]
		s0 := nat.Stats()
		if err := nat.Process(&p); err != nil {
			return 0, fmt.Errorf("native packet %d: %w", got.pkt, err)
		}
		if want := outcomeOf(got.pkt, s0, nat.Stats()); got != want || got.delivered+got.dropped != 1+got.mirrored {
			bad++
		}
	}
	a.nativeCycles += nat.Tally().Cycles()
	a.nativePkts += uint64(len(a.served))
	a.served = a.served[:0]
	return bad, nil
}

func (a *chainApp) Diagnostics() []value {
	xs := a.chain.XcallStats()
	var fill float64
	if xs.Drains > 0 {
		fill = float64(xs.Drained) / float64(xs.Drains)
	}
	var native float64
	if a.nativePkts > 0 {
		native = float64(a.nativeCycles) / float64(a.nativePkts)
	}
	return []value{
		{"xcall.batch_fill", fill, "count"},
		{"nfchain.native_cycles_per_pkt", native, "cycles"},
	}
}

func (a *chainApp) Close() {
	if a.chain != nil {
		a.chain.Destroy()
	}
	a.stop()
}
