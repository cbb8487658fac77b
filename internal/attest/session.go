package attest

import (
	"errors"
	"sync"

	"sgxnet/internal/core"
	"sgxnet/internal/sgxcrypto"
)

// A Session is the outcome of a successful remote attestation: the peer's
// attested identity and, when Diffie-Hellman was exchanged, the secure
// channel bootstrapped from the shared secret. Sessions live inside the
// enclave that ran the protocol.
type Session struct {
	Peer    Identity
	Secret  [32]byte
	Channel *sgxcrypto.Channel // nil when attestation ran without DH

	expired bool // set by Expire, under the table's lock
}

// SessionTable tracks sessions by the connection they were established
// on. It is embedded in both protocol states.
type SessionTable struct {
	mu sync.Mutex
	m  map[uint32]*Session
}

// ErrNoSession is returned for connections without an attested session.
var ErrNoSession = errors.New("attest: no attested session on this connection")

// ErrNoChannel is returned when a session was established without DH and
// therefore has no secure channel.
var ErrNoChannel = errors.New("attest: session has no secure channel (attested without DH)")

// ErrSessionExpired is returned on the first use of a session Expire
// ended; the session is evicted and the peer must re-attest. Freshness
// bounds how long a since-compromised (or since-revoked) peer can keep
// using an old attestation.
var ErrSessionExpired = errors.New("attest: session expired; re-attest to continue")

func (t *SessionTable) put(connID uint32, s *Session) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[uint32]*Session)
	}
	t.m[connID] = s
	t.mu.Unlock()
}

// Expire ends a session's validity (revocation, or the passage of
// time). The entry stays until its next use reports ErrSessionExpired,
// mirroring how real expiry is only observed lazily.
func (t *SessionTable) Expire(connID uint32) {
	t.mu.Lock()
	if s, ok := t.m[connID]; ok {
		s.expired = true
	}
	t.mu.Unlock()
}

// Session returns the session established on a connection. Expired
// sessions are evicted and reported as absent.
func (t *SessionTable) Session(connID uint32) (*Session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[connID]
	if ok && s.expired {
		delete(t.m, connID)
		return nil, false
	}
	return s, ok
}

// live fetches a session for use, evicting it with ErrSessionExpired
// when it has aged out. Detection itself charges nothing: a rejected use
// is a validation failure, and the validate-then-charge rule (DESIGN.md
// §8) says failed validation costs zero. The re-establishment cost
// (core.CostSessionReestablish) is charged by the driver that actually
// schedules the re-attestation — Reestablish in retry.go.
func (t *SessionTable) live(connID uint32) (*Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[connID]
	if !ok {
		return nil, ErrNoSession
	}
	if s.expired {
		delete(t.m, connID)
		return nil, ErrSessionExpired
	}
	return s, nil
}

// Drop forgets a session.
func (t *SessionTable) Drop(connID uint32) {
	t.mu.Lock()
	delete(t.m, connID)
	t.mu.Unlock()
}

// Count reports the number of live sessions.
func (t *SessionTable) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Seal encrypts a message on the session's secure channel, charging the
// enclave meter.
func (t *SessionTable) Seal(m *core.Meter, connID uint32, msg []byte) ([]byte, error) {
	s, err := t.live(connID)
	if err != nil {
		return nil, err
	}
	if s.Channel == nil {
		return nil, ErrNoChannel
	}
	return s.Channel.Seal(m, msg)
}

// Open authenticates and decrypts a channel message.
func (t *SessionTable) Open(m *core.Meter, connID uint32, sealed []byte) ([]byte, error) {
	s, err := t.live(connID)
	if err != nil {
		return nil, err
	}
	if s.Channel == nil {
		return nil, ErrNoChannel
	}
	return s.Channel.Open(m, sealed)
}
