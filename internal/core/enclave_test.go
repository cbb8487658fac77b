package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform("test-host", PlatformConfig{EPCFrames: 256})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func echoProgram() *Program {
	return &Program{
		Name:    "echo",
		Version: "1.0",
		Handlers: map[string]Handler{
			"echo": func(env *Env, arg []byte) ([]byte, error) {
				return append([]byte("echo:"), arg...), nil
			},
		},
	}
}

func mustSigner(t *testing.T) *Signer {
	t.Helper()
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLaunchAndCall(t *testing.T) {
	p := testPlatform(t)
	e, err := p.Launch(echoProgram(), mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Call("echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("out = %q", out)
	}
	if e.Meter().SGX() != 2 { // EENTER + EEXIT
		t.Fatalf("SGX(U) = %d, want 2", e.Meter().SGX())
	}
}

func TestMeasurementDeterministicAcrossPlatforms(t *testing.T) {
	p1 := testPlatform(t)
	p2 := testPlatform(t)
	s := mustSigner(t)
	e1, err := p1.Launch(echoProgram(), s)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p2.Launch(echoProgram(), s)
	if err != nil {
		t.Fatal(err)
	}
	if e1.MREnclave() != e2.MREnclave() {
		t.Fatal("identical programs must measure identically on any platform")
	}
	if e1.MRSigner() != e2.MRSigner() || e1.MRSigner() != s.MRSigner() {
		t.Fatal("MRSIGNER mismatch")
	}
}

func TestTamperedProgramChangesMeasurement(t *testing.T) {
	p := testPlatform(t)
	s := mustSigner(t)
	good, err := p.Launch(echoProgram(), s)
	if err != nil {
		t.Fatal(err)
	}
	tampered := echoProgram()
	tampered.Config = []byte("exfiltrate=true") // malicious rebuild
	bad, err := p.Launch(tampered, s)
	if err != nil {
		t.Fatal(err)
	}
	if good.MREnclave() == bad.MREnclave() {
		t.Fatal("tampered program measured identically — attestation would not catch it")
	}
}

func TestEInitRejectsBadSignature(t *testing.T) {
	p := testPlatform(t)
	free := p.EPC().FreeCount()
	prog := echoProgram()
	b, err := p.ECreate(len(prog.Image()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddProgram(prog); err != nil {
		t.Fatal(err)
	}
	s := mustSigner(t)
	ss := s.Sign(b.Measurement())
	ss.Sig[0] ^= 0xff
	if _, err := b.EInit(prog, ss); err == nil {
		t.Fatal("EINIT accepted forged SIGSTRUCT")
	}
	if got := p.EPC().FreeCount(); got != free {
		t.Fatalf("rejected build kept EPC frames: FreeCount %d, want %d", got, free)
	}
}

func TestEInitRejectsWrongMeasurement(t *testing.T) {
	p := testPlatform(t)
	free := p.EPC().FreeCount()
	prog := echoProgram()
	b, err := p.ECreate(len(prog.Image()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddProgram(prog); err != nil {
		t.Fatal(err)
	}
	s := mustSigner(t)
	var wrong Measurement
	wrong[0] = 1
	ss := s.Sign(wrong) // signature valid, but over the wrong measurement
	if _, err := b.EInit(prog, ss); err == nil {
		t.Fatal("EINIT accepted SIGSTRUCT for a different measurement")
	}
	if got := p.EPC().FreeCount(); got != free {
		t.Fatalf("rejected build kept EPC frames: FreeCount %d, want %d", got, free)
	}
	if err := b.AddPage(0x99000, PageREG, PermR, nil); err == nil {
		t.Fatal("EADD accepted after the build was rejected")
	}
}

func TestDoubleEInitRejected(t *testing.T) {
	p := testPlatform(t)
	prog := echoProgram()
	b, err := p.ECreate(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddProgram(prog); err != nil {
		t.Fatal(err)
	}
	s := mustSigner(t)
	if _, err := b.EInit(prog, s.Sign(b.Measurement())); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EInit(prog, s.Sign(b.Measurement())); err == nil {
		t.Fatal("double EINIT accepted")
	}
	if err := b.AddPage(0x99000, PageREG, PermR, nil); err == nil {
		t.Fatal("EADD after EINIT accepted (SGX1 has no EDMM)")
	}
}

func TestCallUnknownEntryPoint(t *testing.T) {
	p := testPlatform(t)
	e, err := p.Launch(echoProgram(), mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("nope", nil); err == nil {
		t.Fatal("call to unknown entry point succeeded")
	}
}

func TestMainRunsOnce(t *testing.T) {
	p := testPlatform(t)
	ran := 0
	prog := &Program{
		Name:    "with-main",
		Version: "1",
		Main: func(env *Env, arg []byte) ([]byte, error) {
			ran++
			return nil, nil
		},
		Handlers: map[string]Handler{},
	}
	if _, err := p.Launch(prog, mustSigner(t)); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("main ran %d times", ran)
	}
}

func TestMainFailureAbortsLaunch(t *testing.T) {
	p := testPlatform(t)
	prog := &Program{
		Name:    "bad-main",
		Version: "1",
		Main: func(env *Env, arg []byte) ([]byte, error) {
			return nil, errors.New("boom")
		},
	}
	if _, err := p.Launch(prog, mustSigner(t)); err == nil {
		t.Fatal("launch succeeded despite failing main")
	}
	if len(p.Enclaves()) != 0 {
		t.Fatal("failed enclave left registered")
	}
}

func TestDestroyFreesEPCAndBlocksCalls(t *testing.T) {
	p := testPlatform(t)
	before := p.EPC().FreeCount()
	e, err := p.Launch(echoProgram(), mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.EPC().FreeCount() >= before {
		t.Fatal("launch consumed no EPC frames")
	}
	e.Destroy()
	e.Destroy() // idempotent
	if _, err := e.Call("echo", nil); err == nil {
		t.Fatal("destroyed enclave accepted a call")
	}
	// Every frame comes back, the SECS included.
	if p.EPC().FreeCount() != before {
		t.Fatalf("EPC frames not reclaimed: before=%d after=%d", before, p.EPC().FreeCount())
	}
}

// TestLaunchDestroyCyclesReturnEveryFrame runs four EPCs' worth of
// launch/destroy cycles on a 64-frame platform. Teardown must return
// every frame an enclave took, its SECS included, or the platform runs
// out of EPC after a few dozen cycles.
func TestLaunchDestroyCyclesReturnEveryFrame(t *testing.T) {
	const frames = 64
	p, err := NewPlatform("cycles", PlatformConfig{EPCFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSigner(t)
	start := p.EPC().FreeCount()
	for i := 0; i < 4*frames; i++ {
		e, err := p.Launch(echoProgram(), s)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		e.Destroy()
	}
	if got := p.EPC().FreeCount(); got != start {
		t.Fatalf("FreeCount after %d cycles = %d, want %d", 4*frames, got, start)
	}
}

// TestLaunchIntoFullEPCReturnsFrames: a launch whose EADD finds the EPC
// full fails and gives back every frame it took, SECS included.
func TestLaunchIntoFullEPCReturnsFrames(t *testing.T) {
	p, err := NewPlatform("full", PlatformConfig{EPCFrames: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSigner(t)
	if _, err := p.Launch(echoProgram(), s); err != nil {
		t.Fatal(err)
	}
	free := p.EPC().FreeCount()
	if _, err := p.Launch(echoProgram(), s); !errors.Is(err, ErrEPCFull) {
		t.Fatalf("second launch into %d free frames: err = %v, want ErrEPCFull", free, err)
	}
	if got := p.EPC().FreeCount(); got != free {
		t.Fatalf("failed launch kept EPC frames: FreeCount %d, want %d", got, free)
	}
	if n := len(p.Enclaves()); n != 1 {
		t.Fatalf("%d enclaves registered, want 1", n)
	}
}

// TestNewPlatformAllocatesByUse: the EPC's bookkeeping follows the frames
// in use, not the frames configured, so building a 4096-frame platform
// allocates a few KiB of host memory, not the 256 KiB a frame table for
// every configured frame takes.
func TestNewPlatformAllocatesByUse(t *testing.T) {
	cfg := PlatformConfig{EPCFrames: 4096}
	if _, err := NewPlatform("warm", cfg); err != nil { // one-time initialization
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewPlatform("guard", cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 32<<10 {
		t.Fatalf("NewPlatform with %d frames allocated %d bytes, want < 32 KiB", p.EPC().FrameCount(), got)
	}
	t.Logf("NewPlatform with %d frames allocated %d bytes", p.EPC().FrameCount(), got)
}

// TestConcurrentLaunchDestroyWhilePaging launches and destroys enclaves
// from several goroutines on one platform while a pager tenant cycles
// through more pages than the EPC holds, so the frame table grows, and
// frames are evicted, reloaded and reused, under contention. Run under
// -race in CI. A launch or fault may find the EPC full under some
// interleaving; whatever happens, every frame must be back once
// everyone is done.
func TestConcurrentLaunchDestroyWhilePaging(t *testing.T) {
	const frames, launchers, cycles, ws, touches = 96, 4, 30, 100, 2000
	p, err := NewPlatform("shared", PlatformConfig{EPCFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSigner(t)
	start := p.EPC().FreeCount()
	tenant, err := p.Launch(echoProgram(), s)
	if err != nil {
		t.Fatal(err)
	}
	pg := NewPager(p.EPC(), nil)
	full := func(err error) bool { return errors.Is(err, ErrEPCFull) || errors.Is(err, ErrPagerNoVictim) }

	var wg sync.WaitGroup
	var launched atomic.Int64
	errs := make(chan error, launchers+1)
	wg.Add(launchers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < touches; i++ {
			if _, err := pg.Touch(tenant.Meter(), tenant.ID(), uint64(i%ws)*PageSize); err != nil && !full(err) {
				errs <- fmt.Errorf("touch %d: %w", i, err)
				return
			}
		}
	}()
	for l := 0; l < launchers; l++ {
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				e, err := p.Launch(echoProgram(), s)
				if full(err) {
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("launch %d: %w", i, err)
					return
				}
				launched.Add(1)
				e.Destroy()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pg.Stats()
	if st.Evictions == 0 {
		t.Fatalf("tenant never evicted a page: %+v", st)
	}
	t.Logf("%d of %d launches found room; pager %+v", launched.Load(), launchers*cycles, st)
	pg.Release(tenant.ID())
	tenant.Destroy()
	if got := p.EPC().FreeCount(); got != start {
		t.Fatalf("FreeCount = %d after everyone finished, want %d", got, start)
	}
}

func TestOCallRequiresHostAndChargesExit(t *testing.T) {
	p := testPlatform(t)
	prog := &Program{
		Name:    "io",
		Version: "1",
		Handlers: map[string]Handler{
			"do": func(env *Env, arg []byte) ([]byte, error) {
				return env.OCall("svc", arg)
			},
		},
	}
	e, err := p.Launch(prog, mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("do", nil); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
	e.BindHost(HostFunc(func(service string, arg []byte) ([]byte, error) {
		return append([]byte(service+":"), arg...), nil
	}))
	e.Meter().SnapshotAndReset()
	out, err := e.Call("do", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "svc:x" {
		t.Fatalf("out = %q", out)
	}
	// EENTER + EEXIT(call) + EEXIT/ERESUME (ocall) = 4.
	if got := e.Meter().SGX(); got != 4 {
		t.Fatalf("SGX(U) = %d, want 4", got)
	}
}

func TestAllocChargesSurcharge(t *testing.T) {
	p := testPlatform(t)
	prog := &Program{
		Name:    "alloc",
		Version: "1",
		Handlers: map[string]Handler{
			"a": func(env *Env, arg []byte) ([]byte, error) {
				buf := env.Alloc(128)
				return buf[:1], nil
			},
		},
	}
	e, err := p.Launch(prog, mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("a", nil); err != nil {
		t.Fatal(err)
	}
	if got := e.Meter().SGX(); got != 2+SGXInstEnclaveAlloc {
		t.Fatalf("SGX(U) = %d, want %d", got, 2+SGXInstEnclaveAlloc)
	}
	if got := e.Meter().Normal(); got != CostEnclaveAllocFixed {
		t.Fatalf("normal = %d, want %d", got, CostEnclaveAllocFixed)
	}
}

func TestGetKeyBindings(t *testing.T) {
	p := testPlatform(t)
	s := mustSigner(t)
	launch := func(prog *Program) *Enclave {
		e, err := p.Launch(prog, s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	keyOf := func(e *Enclave, name KeyName) [32]byte {
		var got [32]byte
		if _, err := e.Call("k", []byte(name)); err != nil {
			t.Fatal(err)
		}
		return got
	}
	_ = keyOf
	var k1seal, k2seal, k1enc, k2enc [32]byte
	mk := func(name string, seal, enc *[32]byte) *Program {
		return &Program{
			Name:    name,
			Version: "1",
			Handlers: map[string]Handler{
				"k": func(env *Env, arg []byte) ([]byte, error) {
					ks, err := env.GetKey(KeySeal)
					if err != nil {
						return nil, err
					}
					ke, err := env.GetKey(KeySealEnclave)
					if err != nil {
						return nil, err
					}
					*seal, *enc = ks, ke
					return nil, nil
				},
			},
		}
	}
	e1 := launch(mk("prog-a", &k1seal, &k1enc))
	e2 := launch(mk("prog-b", &k2seal, &k2enc))
	if _, err := e1.Call("k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Call("k", nil); err != nil {
		t.Fatal(err)
	}
	if k1seal != k2seal {
		t.Fatal("same-signer enclaves must share the MRSIGNER seal key")
	}
	if k1enc == k2enc {
		t.Fatal("different programs must derive different MRENCLAVE seal keys")
	}
	if _, err := e1.Call("k", nil); err != nil {
		t.Fatal(err)
	}
}

func TestGetKeyUnknownName(t *testing.T) {
	p := testPlatform(t)
	prog := &Program{
		Name:    "badkey",
		Version: "1",
		Handlers: map[string]Handler{
			"k": func(env *Env, arg []byte) ([]byte, error) {
				_, err := env.GetKey("nonsense")
				return nil, err
			},
		},
	}
	e, err := p.Launch(prog, mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("k", nil); err == nil {
		t.Fatal("unknown key name accepted")
	}
}

func TestAttestationKeyRestricted(t *testing.T) {
	p := testPlatform(t)
	prog := &Program{
		Name:    "wannabe-quoting",
		Version: "1",
		Handlers: map[string]Handler{
			"steal": func(env *Env, arg []byte) ([]byte, error) {
				_, err := env.AttestationKey()
				return nil, err
			},
		},
	}
	e, err := p.Launch(prog, mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("steal", nil); err == nil {
		t.Fatal("non-architectural enclave obtained the platform attestation key")
	}
}

func TestArchitecturalEnclaveViaArchSigner(t *testing.T) {
	arch := mustSigner(t)
	p, err := NewPlatform("h", PlatformConfig{EPCFrames: 128, ArchSigner: arch.MRSigner()})
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{
		Name:    "quoting",
		Version: "1",
		Handlers: map[string]Handler{
			"key": func(env *Env, arg []byte) ([]byte, error) {
				_, err := env.AttestationKey()
				return nil, err
			},
		},
	}
	e, err := p.Launch(prog, arch)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Attrs().Architectural {
		t.Fatal("arch-signed enclave not marked architectural")
	}
	if _, err := e.Call("key", nil); err != nil {
		t.Fatalf("architectural enclave denied attestation key: %v", err)
	}
	// Same program signed by someone else is not architectural.
	e2, err := p.Launch(prog, mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Attrs().Architectural {
		t.Fatal("non-arch signer produced architectural enclave")
	}
}

func TestProgramImageSensitivity(t *testing.T) {
	base := echoProgram()
	variants := []*Program{
		{Name: "echo2", Version: base.Version, Handlers: base.Handlers},
		{Name: base.Name, Version: "1.1", Handlers: base.Handlers},
		{Name: base.Name, Version: base.Version, Config: []byte("x"), Handlers: base.Handlers},
		{Name: base.Name, Version: base.Version, Handlers: map[string]Handler{"other": base.Handlers["echo"]}},
	}
	img := base.Image()
	for i, v := range variants {
		if bytes.Equal(img, v.Image()) {
			t.Fatalf("variant %d has identical image", i)
		}
	}
	// Handler *order* must not matter (map iteration is randomized).
	h := base.Handlers["echo"]
	a := &Program{Name: "m", Version: "1", Handlers: map[string]Handler{"a": h, "b": h, "c": h}}
	b := &Program{Name: "m", Version: "1", Handlers: map[string]Handler{"c": h, "b": h, "a": h}}
	if !bytes.Equal(a.Image(), b.Image()) {
		t.Fatal("image depends on map iteration order")
	}
}

func TestProgramValidate(t *testing.T) {
	if err := (&Program{}).Validate(); err == nil {
		t.Fatal("nameless program validated")
	}
	if err := (&Program{Name: "x"}).Validate(); err == nil {
		t.Fatal("entry-point-less program validated")
	}
	if err := echoProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: any two programs whose images differ produce different
// measurements (collision would require breaking SHA-256).
func TestMeasurementInjectivityProperty(t *testing.T) {
	p := testPlatform(t)
	s := mustSigner(t)
	seen := map[Measurement]string{}
	f := func(name, version string, config []byte) bool {
		if name == "" {
			name = "n"
		}
		prog := &Program{Name: name, Version: version, Config: config,
			Handlers: map[string]Handler{"h": func(*Env, []byte) ([]byte, error) { return nil, nil }}}
		e, err := p.Launch(prog, s)
		if err != nil {
			return true // EPC exhaustion acceptable
		}
		key := string(prog.Image())
		if prev, dup := seen[e.MREnclave()]; dup && prev != key {
			return false
		}
		seen[e.MREnclave()] = key
		e.Destroy()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentEnclaveCalls: the runtime must tolerate concurrent
// ECALLs into the same enclave (the controller serves many AS
// connections at once) without losing meter updates.
func TestConcurrentEnclaveCalls(t *testing.T) {
	p := testPlatform(t)
	e, err := p.Launch(echoProgram(), mustSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	const workers, calls = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < calls; i++ {
				out, err := e.Call("echo", []byte{byte(w)})
				if err != nil {
					errs <- err
					return
				}
				if len(out) != 6 || out[5] != byte(w) {
					errs <- errors.New("cross-talk between concurrent calls")
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// EENTER+EEXIT per call, none lost.
	if got := e.Meter().SGX(); got != 2*workers*calls {
		t.Fatalf("SGX(U)=%d, want %d", got, 2*workers*calls)
	}
}
