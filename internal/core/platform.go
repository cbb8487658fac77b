package core

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
)

// EnclaveID identifies an enclave on its platform.
type EnclaveID uint64

// Attributes are the SECS attributes that participate in reports.
type Attributes struct {
	// Debug enclaves can be inspected; production attestation policies
	// reject them.
	Debug bool
	// Architectural marks Intel-provisioned enclaves (the quoting
	// enclave). Only architectural enclaves can obtain the platform
	// attestation key.
	Architectural bool
}

func (a Attributes) encode() byte {
	var b byte
	if a.Debug {
		b |= 1
	}
	if a.Architectural {
		b |= 2
	}
	return b
}

// PlatformConfig parameterizes a simulated SGX platform.
type PlatformConfig struct {
	// EPCFrames is the number of 4KiB EPC frames (default 1024 ≈ 4MiB,
	// a contemporary SGX1 PRM size after metadata).
	EPCFrames int
	// ArchSigner is the MRSIGNER allowed to launch architectural
	// enclaves (the "Intel" signer). Zero means none.
	ArchSigner Measurement
	// Seed, when non-empty, derives the platform's fused secrets (the
	// key-derivation root, the MEE key, and the attestation keypair)
	// deterministically instead of from crypto/rand. Two platforms built
	// from the same seed are byte-for-byte interchangeable — same sealed
	// blobs, same evicted-page blobs — which is what lets paging traces
	// and the EPC sweep goldens pin exact bytes. Production platforms
	// leave it empty; determinism-sensitive harnesses set it.
	Seed []byte
}

// Platform models one SGX-enabled machine: a CPU package holding fused
// secrets, an EPC, and the enclaves launched on it. Everything outside —
// including the code that drives the platform — is untrusted.
type Platform struct {
	Name string

	mu       sync.Mutex
	cfg      PlatformConfig
	epc      *EPC
	secret   [32]byte // fused key-derivation root (never leaves the CPU)
	attPriv  ed25519.PrivateKey
	attPub   ed25519.PublicKey
	enclaves map[EnclaveID]*Enclave
	nextID   EnclaveID

	// HostMeter tallies instructions executed by untrusted host code on
	// this platform (the "w/o SGX" side of comparisons).
	HostMeter *Meter

	// probe, when set, observes the platform's instruction stream and
	// lifecycle events (see SetProbe). Nil by default and on the hot
	// path costs one atomic load.
	probe atomic.Pointer[probeHolder]
}

// NewPlatform creates a platform with freshly generated fused secrets and
// attestation keys.
func NewPlatform(name string, cfg PlatformConfig) (*Platform, error) {
	if cfg.EPCFrames <= 0 {
		cfg.EPCFrames = 1024
	}
	var secret, sealKey [32]byte
	var pub ed25519.PublicKey
	var priv ed25519.PrivateKey
	if len(cfg.Seed) > 0 {
		secret = seedDerive("sgxnet-platform-secret", cfg.Seed)
		sealKey = seedDerive("sgxnet-mee-key", cfg.Seed)
		att := seedDerive("sgxnet-attestation-key", cfg.Seed)
		priv = ed25519.NewKeyFromSeed(att[:])
		pub = priv.Public().(ed25519.PublicKey)
	} else {
		if _, err := rand.Read(secret[:]); err != nil {
			return nil, fmt.Errorf("core: platform secret: %w", err)
		}
		if _, err := rand.Read(sealKey[:]); err != nil {
			return nil, fmt.Errorf("core: MEE key: %w", err)
		}
		var err error
		pub, priv, err = ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("core: attestation key: %w", err)
		}
	}
	p := &Platform{
		Name:      name,
		cfg:       cfg,
		epc:       NewEPC(cfg.EPCFrames, sealKey),
		secret:    secret,
		attPriv:   priv,
		attPub:    pub,
		enclaves:  make(map[EnclaveID]*Enclave),
		nextID:    1,
		HostMeter: NewMeter(),
	}
	if h := defaultProbe.Load(); h != nil {
		p.probe.Store(h)
		p.epc.probe.Store(h)
	}
	return p, nil
}

// EPC exposes the platform's enclave page cache (host-visible; contents
// are sealed).
func (p *Platform) EPC() *EPC { return p.epc }

// AttestationPublicKey returns the platform's public attestation key — the
// verification key challengers use on QUOTEs (the paper's "remote
// platform's public key", EPID stand-in).
func (p *Platform) AttestationPublicKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(p.attPub))
	copy(out, p.attPub)
	return out
}

// attestationKeyFor hands the private attestation key to an architectural
// enclave. Any other caller is refused: this is the hardware property that
// "only the quoting enclave can access the processor key used for
// attestation" (§2.2).
func (p *Platform) attestationKeyFor(e *Enclave) (ed25519.PrivateKey, error) {
	if e == nil || e.plat != p || !e.attrs.Architectural {
		return nil, fmt.Errorf("core: attestation key restricted to architectural enclaves")
	}
	return p.attPriv, nil
}

// Enclave returns a launched enclave by ID.
func (p *Platform) Enclave(id EnclaveID) (*Enclave, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.enclaves[id]
	return e, ok
}

// Enclaves returns all live enclaves on the platform.
func (p *Platform) Enclaves() []*Enclave {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Enclave, 0, len(p.enclaves))
	for _, e := range p.enclaves {
		out = append(out, e)
	}
	return out
}

// seedDerive expands a deterministic platform seed into one fused
// secret, domain-separated by label.
func seedDerive(label string, seed []byte) [32]byte {
	mac := hmac.New(sha256.New, seed)
	mac.Write([]byte(label))
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// deriveKey implements the CPU's key-derivation for EGETKEY: a PRF over
// the fused secret, the key name, and the binding measurement.
func (p *Platform) deriveKey(name string, bind Measurement) [32]byte {
	mac := hmac.New(sha256.New, p.secret[:])
	mac.Write([]byte(name))
	mac.Write(bind[:])
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// ECreate begins construction of an enclave (the privileged ECREATE
// instruction): it allocates the SECS page and returns a builder through
// which the untrusted runtime adds pages and finally EINITs.
func (p *Platform) ECreate(sizeHint int) (*EnclaveBuilder, error) {
	p.mu.Lock()
	id := p.nextID
	p.nextID++
	p.mu.Unlock()

	secs := make([]byte, 64)
	copy(secs, "SECS")
	idx, err := p.epc.Alloc(0, PageSECS, 0, PermR, secs)
	if err != nil {
		return nil, fmt.Errorf("core: ECREATE: %w", err)
	}
	p.observe(KindECREATE, 1)
	return &EnclaveBuilder{
		plat: p,
		id:   id,
		secs: idx,
		m:    newMeasurer(uint64(sizeHint)),
	}, nil
}

// Launch is the convenience path: ECREATE, EADD every image page, EINIT
// with the given signer's SIGSTRUCT. It returns a running enclave.
func (p *Platform) Launch(prog *Program, signer *Signer) (*Enclave, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	b, err := p.ECreate(len(prog.Image()))
	if err != nil {
		return nil, err
	}
	if err := b.AddProgram(prog); err != nil {
		return nil, err
	}
	ss := signer.Sign(b.Measurement())
	return b.EInit(prog, ss)
}

// remove deregisters an enclave and frees its EPC frames: every page it
// owns, then its SECS.
func (p *Platform) remove(id EnclaveID, secs int) {
	p.mu.Lock()
	delete(p.enclaves, id)
	p.mu.Unlock()
	p.epc.FreeEnclave(id)
	p.epc.removeSECS(secs)
}
