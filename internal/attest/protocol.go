package attest

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/wire"
)

// Remote attestation protocol: target and challenger roles. The entry
// points are in-enclave handlers (merged into an application program with
// AddTargetHandlers / AddChallengerHandlers); the Respond and Challenge
// drivers are the untrusted runtime's orchestration around them.
//
// The ENCLU traces reproduce Table 1 exactly:
//
//	challenger — begin: EENTER, msg-send OCALL, EEXIT (4);
//	             finish: EENTER, msg-send OCALL, EEXIT (4) → 8 SGX(U)
//	target     — prepare: EENTER, msg-recv, EREPORT, msg-send, EEXIT (7);
//	             evidence: EENTER, msg-recv, EGETKEY, msg-send, EEXIT (7);
//	             finish: EENTER, msg-recv, msg-send, EEXIT (6) → 20 SGX(U)
//	quoting    — see quotingProgram → 17 SGX(U)

// keyConfirmLabel domain-separates the key-confirmation message.
const keyConfirmLabel = "sgxnet-key-confirm"

// expectedQuoteData binds the quote to this protocol run: the challenger
// recomputes it from the nonce and the target's DH material.
func expectedQuoteData(nonce [32]byte, prime, gen, targetPub []byte) core.ReportData {
	var buf bytes.Buffer
	buf.Write(nonce[:])
	buf.Write(prime)
	buf.Write(gen)
	buf.Write(targetPub)
	return core.ReportDataFrom(buf.Bytes())
}

// ---------------------------------------------------------------------------
// Target role

type targetPending struct {
	start    core.Tally
	wantDH   bool
	nonce    [32]byte
	dhParams *sgxcrypto.DHParams
	dhKey    *sgxcrypto.DHKey
	quoteID  uint32
}

// TargetState is the in-enclave state of an attestation target: pending
// protocol runs and established sessions.
type TargetState struct {
	SessionTable
	pmu     sync.Mutex
	pending map[uint32]*targetPending
}

// NewTargetState creates an empty target state.
func NewTargetState() *TargetState {
	return &TargetState{pending: make(map[uint32]*targetPending)}
}

func (st *TargetState) take(connID uint32) (*targetPending, error) {
	st.pmu.Lock()
	defer st.pmu.Unlock()
	p, ok := st.pending[connID]
	if !ok {
		return nil, fmt.Errorf("attest: no pending attestation on conn %d", connID)
	}
	return p, nil
}

func parseIDs(arg []byte) (cid, qid uint32, err error) {
	if len(arg) < 8 {
		return 0, 0, fmt.Errorf("attest: short handler argument")
	}
	return binary.LittleEndian.Uint32(arg[:4]), binary.LittleEndian.Uint32(arg[4:8]), nil
}

// AddTargetHandlers merges the target-role entry points into a program.
// The handlers close over st, which becomes enclave-private state.
func AddTargetHandlers(prog *core.Program, st *TargetState) {
	if prog.Handlers == nil {
		prog.Handlers = make(map[string]core.Handler)
	}
	prog.Handlers["attest.t.prepare"] = st.prepare
	prog.Handlers["attest.t.evidence"] = st.evidence
	prog.Handlers["attest.t.finish"] = st.finish
}

// prepare receives the challenge, generates DH material if requested, and
// sends a REPORT to the quoting enclave.
func (st *TargetState) prepare(env *core.Env, arg []byte) ([]byte, error) {
	cid, qid, err := parseIDs(arg)
	if err != nil {
		return nil, err
	}
	p := &targetPending{start: env.Meter().Snapshot(), quoteID: qid}

	raw, err := env.OCall("msg.recv", netsim.EncodeSend(cid, nil))
	if err != nil {
		return nil, err
	}
	var ch MsgChallenge
	if err := wire.Decode(raw, &ch); err != nil {
		return nil, err
	}
	p.nonce, p.wantDH = ch.Nonce, ch.WantDH

	var prime, gen, pub []byte
	if ch.WantDH {
		// The target generates fresh DH parameters — the dominant cost of
		// Table 1's "w/ DH" target column.
		params, err := sgxcrypto.GenerateParams(env.Meter(), 1024, nil)
		if err != nil {
			return nil, err
		}
		key, err := sgxcrypto.GenerateKey(env.Meter(), params, nil)
		if err != nil {
			return nil, err
		}
		p.dhParams, p.dhKey = params, key
		prime, gen, pub = params.P.Bytes(), params.G.Bytes(), key.Public.Bytes()
	}
	rep := env.EReport(core.TargetInfo{Measurement: QuotingMeasurement()},
		expectedQuoteData(ch.Nonce, prime, gen, pub))

	st.pmu.Lock()
	st.pending[cid] = p
	st.pmu.Unlock()

	if _, err := env.OCall("msg.send", netsim.EncodeSend(qid, rep.Marshal())); err != nil {
		return nil, err
	}
	return nil, nil
}

// evidence receives the QUOTE from the quoting enclave, verifies the
// quoting enclave's mutual report, and forwards the evidence to the
// challenger.
func (st *TargetState) evidence(env *core.Env, arg []byte) ([]byte, error) {
	cid, qid, err := parseIDs(arg)
	if err != nil {
		return nil, err
	}
	p, err := st.take(cid)
	if err != nil {
		return nil, err
	}
	raw, err := env.OCall("msg.recv", netsim.EncodeSend(qid, nil))
	if err != nil {
		return nil, err
	}
	var resp msgQuoteResp
	if err := wire.Decode(raw, &resp); err != nil {
		return nil, err
	}
	repQ, ok := core.UnmarshalReport(resp.ReportQ)
	if !ok {
		return nil, fmt.Errorf("attest: malformed quoting report")
	}
	if !env.VerifyReport(repQ) || repQ.MREnclave != QuotingMeasurement() {
		return nil, fmt.Errorf("attest: quoting enclave failed mutual intra-attestation")
	}
	ev := MsgEvidence{Quote: resp.Quote}
	if p.wantDH {
		ev.DHPrime = p.dhParams.P.Bytes()
		ev.DHGen = p.dhParams.G.Bytes()
		ev.TargetPub = p.dhKey.Public.Bytes()
	}
	enc, err := wire.Encode(ev)
	if err != nil {
		return nil, err
	}
	if _, err := env.OCall("msg.send", netsim.EncodeSend(cid, enc)); err != nil {
		return nil, err
	}
	return nil, nil
}

// finish receives the challenger's confirmation, derives the channel, and
// acknowledges.
func (st *TargetState) finish(env *core.Env, arg []byte) ([]byte, error) {
	cid, _, err := parseIDs(arg)
	if err != nil {
		return nil, err
	}
	p, err := st.take(cid)
	if err != nil {
		return nil, err
	}
	defer func() {
		st.pmu.Lock()
		delete(st.pending, cid)
		st.pmu.Unlock()
	}()

	raw, err := env.OCall("msg.recv", netsim.EncodeSend(cid, nil))
	if err != nil {
		return nil, err
	}
	var conf MsgConfirm
	if err := wire.Decode(raw, &conf); err != nil {
		return nil, err
	}
	sess := &Session{}
	var ackBody []byte
	if p.wantDH {
		pub := new(big.Int).SetBytes(conf.ChallengerPub)
		secret, err := p.dhKey.Shared(env.Meter(), pub)
		if err != nil {
			return nil, err
		}
		ch, err := sgxcrypto.NewChannel(env.Meter(), secret)
		if err != nil {
			return nil, err
		}
		// Key confirmation: the challenger proves possession by sealing
		// the label+nonce under the derived channel.
		kc, err := ch.Open(env.Meter(), conf.KeyConfirm)
		if err != nil || !bytes.Equal(kc, append([]byte(keyConfirmLabel), p.nonce[:]...)) {
			return nil, fmt.Errorf("attest: key confirmation failed")
		}
		sess.Secret, sess.Channel = secret, ch
		ackBody, err = ch.Seal(env.Meter(), []byte("OK"))
		if err != nil {
			return nil, err
		}
	} else {
		ackBody = []byte("OK")
	}
	st.put(cid, sess)

	ack, err := wire.Encode(MsgAck{Ack: ackBody})
	if err != nil {
		return nil, err
	}
	if _, err := env.OCall("msg.send", netsim.EncodeSend(cid, ack)); err != nil {
		return nil, err
	}
	want := uint64(core.CostAttestTargetBase)
	if p.wantDH {
		want += core.CostDHParamGen + core.CostDHKeyAgree
	}
	topUp(env.Meter(), p.start, want)
	return nil, nil
}

// Respond drives the target side of one remote attestation over conn: it
// opens the local quoting-enclave connection, performs the untrusted
// hello/done framing, and enters the enclave for the three protocol
// steps. On success the enclave holds a session for the returned connID.
// With a non-nil trace, the whole run and each protocol round become
// spans on track carrying the target enclave's tally deltas; the track
// must be private to this (sequential) flow. A nil trace records
// nothing.
func Respond(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, host *netsim.SimHost, conn *netsim.Conn) (uint32, error) {
	// A previous run's closing charges (finish's top-up and EEXIT, sent
	// after its ack) must land before this run's top-up window opens.
	enc.Meter().Settle()
	all := tr.Begin(track, "attest.respond", enc.Meter())
	defer all.End()
	cid := shim.Adopt(conn)
	qconn, err := host.Dial(host.Name(), QuoteService)
	if err != nil {
		return 0, fmt.Errorf("attest: dialing quoting enclave: %w", err)
	}
	defer qconn.Close()
	if err := qconn.Send([]byte("hello")); err != nil {
		return 0, err
	}
	if _, err := qconn.Recv(); err != nil { // qe-hello
		return 0, err
	}
	qid := shim.Adopt(qconn)
	defer shim.Forget(qid)
	arg := make([]byte, 8)
	binary.LittleEndian.PutUint32(arg[:4], cid)
	binary.LittleEndian.PutUint32(arg[4:], qid)

	round := func(name string) error {
		s := tr.Begin(track, name, enc.Meter())
		_, err := enc.Call(name, arg)
		s.End()
		return err
	}
	if err := round("attest.t.prepare"); err != nil {
		return 0, err
	}
	if err := round("attest.t.evidence"); err != nil {
		return 0, err
	}
	if err := qconn.Send([]byte("done")); err != nil {
		return 0, err
	}
	if _, err := qconn.Recv(); err != nil { // qe-bye
		return 0, err
	}
	// The quote's charges must all land before this attestation can
	// complete: the challenger returns only after finish's ack.
	awaitServe(qconn)
	if err := round("attest.t.finish"); err != nil {
		return 0, err
	}
	return cid, nil
}

// ---------------------------------------------------------------------------
// Challenger role

type challengerPending struct {
	start  core.Tally
	wantDH bool
	nonce  [32]byte
}

// ChallengerState is the in-enclave state of an attestation challenger.
// The acceptance policy is part of the enclave's trusted configuration;
// it may be replaced at runtime through SetPolicy when the enclave
// follows a community release registry (§4) whose whitelist evolves.
type ChallengerState struct {
	SessionTable

	polMu  sync.RWMutex
	policy Policy

	pmu     sync.Mutex
	pending map[uint32]*challengerPending
}

// NewChallengerState creates a challenger state with the given policy.
func NewChallengerState(policy Policy) *ChallengerState {
	return &ChallengerState{policy: policy, pending: make(map[uint32]*challengerPending)}
}

// Policy returns the current acceptance policy.
func (st *ChallengerState) Policy() Policy {
	st.polMu.RLock()
	defer st.polMu.RUnlock()
	return st.policy
}

// SetPolicy replaces the acceptance policy (e.g. after a registry
// update revokes a build).
func (st *ChallengerState) SetPolicy(p Policy) {
	st.polMu.Lock()
	st.policy = p
	st.polMu.Unlock()
}

// AddChallengerHandlers merges the challenger-role entry points into a
// program.
func AddChallengerHandlers(prog *core.Program, st *ChallengerState) {
	if prog.Handlers == nil {
		prog.Handlers = make(map[string]core.Handler)
	}
	prog.Handlers["attest.c.begin"] = st.begin
	prog.Handlers["attest.c.finish"] = st.finish
}

// begin sends the challenge. arg: connID(4) ‖ wantDH(1).
func (st *ChallengerState) begin(env *core.Env, arg []byte) ([]byte, error) {
	if len(arg) < 5 {
		return nil, fmt.Errorf("attest: short begin argument")
	}
	cid := binary.LittleEndian.Uint32(arg[:4])
	p := &challengerPending{start: env.Meter().Snapshot(), wantDH: arg[4] == 1}
	if _, err := rand.Read(p.nonce[:]); err != nil {
		return nil, err
	}
	st.pmu.Lock()
	st.pending[cid] = p
	st.pmu.Unlock()

	msg, err := wire.Encode(MsgChallenge{Nonce: p.nonce, WantDH: p.wantDH})
	if err != nil {
		return nil, err
	}
	if _, err := env.OCall("msg.send", netsim.EncodeSend(cid, msg)); err != nil {
		return nil, err
	}
	return nil, nil
}

// finish verifies the evidence and sends the confirmation.
// arg: connID(4) ‖ MsgEvidence bytes (received by the untrusted runtime —
// evidence is public; its integrity comes from the quote signature).
func (st *ChallengerState) finish(env *core.Env, arg []byte) ([]byte, error) {
	if len(arg) < 4 {
		return nil, fmt.Errorf("attest: short finish argument")
	}
	cid := binary.LittleEndian.Uint32(arg[:4])
	st.pmu.Lock()
	p, ok := st.pending[cid]
	delete(st.pending, cid)
	st.pmu.Unlock()
	if !ok {
		return nil, fmt.Errorf("attest: no pending challenge on conn %d", cid)
	}
	var ev MsgEvidence
	if err := wire.Decode(arg[4:], &ev); err != nil {
		return nil, err
	}
	if !ev.Quote.Verify(env.Meter()) {
		return nil, fmt.Errorf("attest: quote signature invalid")
	}
	pol := st.Policy()
	if err := pol.Check(&ev.Quote); err != nil {
		return nil, err
	}
	if ev.Quote.Data != expectedQuoteData(p.nonce, ev.DHPrime, ev.DHGen, ev.TargetPub) {
		return nil, fmt.Errorf("attest: quote not bound to this challenge (replay?)")
	}

	sess := &Session{Peer: ev.Quote.Identity}
	conf := MsgConfirm{}
	if p.wantDH {
		if len(ev.DHPrime) == 0 || len(ev.TargetPub) == 0 {
			return nil, fmt.Errorf("attest: target omitted DH material")
		}
		params := &sgxcrypto.DHParams{
			P: new(big.Int).SetBytes(ev.DHPrime),
			G: new(big.Int).SetBytes(ev.DHGen),
		}
		if params.Bits() < 1024 {
			// Iago-style downgrade: refuse weak parameters.
			return nil, fmt.Errorf("attest: DH parameters below 1024 bits")
		}
		key, err := sgxcrypto.GenerateKey(env.Meter(), params, nil)
		if err != nil {
			return nil, err
		}
		secret, err := key.Shared(env.Meter(), new(big.Int).SetBytes(ev.TargetPub))
		if err != nil {
			return nil, err
		}
		ch, err := sgxcrypto.NewChannel(env.Meter(), secret)
		if err != nil {
			return nil, err
		}
		kc, err := ch.Seal(env.Meter(), append([]byte(keyConfirmLabel), p.nonce[:]...))
		if err != nil {
			return nil, err
		}
		conf.ChallengerPub = key.Public.Bytes()
		conf.KeyConfirm = kc
		sess.Secret, sess.Channel = secret, ch
	}
	st.put(cid, sess)

	enc, err := wire.Encode(conf)
	if err != nil {
		return nil, err
	}
	if _, err := env.OCall("msg.send", netsim.EncodeSend(cid, enc)); err != nil {
		return nil, err
	}
	want := uint64(core.CostAttestChallengerBase)
	if p.wantDH {
		want += core.CostDHKeyAgree
	}
	topUp(env.Meter(), p.start, want)
	return marshalIdentity(ev.Quote.Identity), nil
}

func marshalIdentity(id Identity) []byte {
	out := make([]byte, 65)
	copy(out[:32], id.MREnclave[:])
	copy(out[32:64], id.MRSigner[:])
	if id.Debug {
		out[64] = 1
	}
	return out
}

// UnmarshalIdentity parses the identity returned by the finish handler.
func UnmarshalIdentity(b []byte) (Identity, bool) {
	if len(b) != 65 {
		return Identity{}, false
	}
	var id Identity
	copy(id.MREnclave[:], b[:32])
	copy(id.MRSigner[:], b[32:64])
	id.Debug = b[64] == 1
	return id, true
}

// Abort discards the pending protocol run on a connection, releasing the
// enclave-held state of an attestation that will never finish (peer died,
// receive timed out, driver gave up). Established sessions are untouched.
func (st *TargetState) Abort(connID uint32) {
	st.pmu.Lock()
	delete(st.pending, connID)
	st.pmu.Unlock()
}

// Abort discards the pending challenge on a connection (see
// TargetState.Abort).
func (st *ChallengerState) Abort(connID uint32) {
	st.pmu.Lock()
	delete(st.pending, connID)
	st.pmu.Unlock()
}

// Challenge drives the challenger side of one remote attestation over
// conn. On success the enclave holds a session for the returned connID
// and the attested peer identity is returned. On failure the connection
// is closed so the remote side unblocks. With a non-nil trace, the
// whole run and each enclave round become spans on track carrying the
// challenger enclave's tally deltas; the track must be private to this
// (sequential) flow. A nil trace records nothing.
func Challenge(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, conn *netsim.Conn, wantDH bool) (uint32, Identity, error) {
	all := tr.Begin(track, "attest.challenge", enc.Meter())
	cid, id, err := challengeOnce(tr, track, enc, shim, conn, wantDH, 0)
	all.End()
	if err != nil {
		return 0, Identity{}, err
	}
	return cid, id, nil
}

// challengeOnce is one attestation attempt with an optional deadline on
// the two untrusted receives (0 blocks forever). Unlike Challenge it
// returns the connID even on failure so the caller can Abort the pending
// enclave state before retrying. A timed-out receive charges
// core.CostRecvTimeout to the challenger enclave's meter: the enclave is
// re-entered just to learn the attempt is dead.
func challengeOnce(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, conn *netsim.Conn, wantDH bool, recvTimeout time.Duration) (uint32, Identity, error) {
	cid := shim.Adopt(conn)
	fail := func(err error) (uint32, Identity, error) {
		if errors.Is(err, netsim.ErrTimeout) {
			enc.Meter().ChargeNormal(core.CostRecvTimeout)
			tr.Event(track, "attest.recv_timeout", nil)
		}
		conn.Close()
		return cid, Identity{}, err
	}
	arg := make([]byte, 5)
	binary.LittleEndian.PutUint32(arg[:4], cid)
	if wantDH {
		arg[4] = 1
	}
	sb := tr.Begin(track, "attest.c.begin", enc.Meter())
	_, err := enc.Call("attest.c.begin", arg)
	sb.End()
	if err != nil {
		return fail(err)
	}
	ev, err := conn.RecvTimeout(recvTimeout) // untrusted receive of public evidence
	if err != nil {
		return fail(err)
	}
	sf := tr.Begin(track, "attest.c.finish", enc.Meter())
	idRaw, err := enc.Call("attest.c.finish", append(arg[:4:4], ev...))
	sf.End()
	if err != nil {
		return fail(err)
	}
	ackRaw, err := conn.RecvTimeout(recvTimeout)
	if err != nil {
		return fail(err)
	}
	var ack MsgAck
	if err := wire.Decode(ackRaw, &ack); err != nil {
		return fail(err)
	}
	if ack.Err != "" {
		return fail(fmt.Errorf("attest: target error: %s", ack.Err))
	}
	id, ok := UnmarshalIdentity(idRaw)
	if !ok {
		return fail(fmt.Errorf("attest: bad identity from finish"))
	}
	return cid, id, nil
}
