package tlslite

import (
	"bytes"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/xcall"
)

func testKeys() Keys {
	var k Keys
	for i := range k.EncC2S {
		k.EncC2S[i] = byte(i)
		k.EncS2C[i] = byte(i + 16)
	}
	for i := range k.MacC2S {
		k.MacC2S[i] = byte(i + 32)
		k.MacS2C[i] = byte(i + 64)
	}
	return k
}

func newEngine(t *testing.T, xc *xcall.Config) *RecordEngine {
	t.Helper()
	plat, err := core.NewPlatform("tls-engine-test", core.PlatformConfig{Seed: []byte("tls-engine-test")})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRecordEngine(plat, signer, testKeys(), xc)
	if err != nil {
		t.Fatal(err)
	}
	eng.Meter().SnapshotAndReset()
	return eng
}

func TestRecordEngineRoundTrip(t *testing.T) {
	for _, xc := range []*xcall.Config{nil, {Batch: 4}} {
		eng := newEngine(t, xc)
		payload := []byte("application data")
		rec, err := eng.Seal(ClientToServer, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Open(ClientToServer, 7, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip: %q", got)
		}
		// Wrong direction/sequence must still reject through the engine.
		if _, err := eng.Open(ServerToClient, 7, rec); err == nil {
			t.Fatal("wrong direction accepted")
		}
		if _, err := eng.Open(ClientToServer, 8, rec); err == nil {
			t.Fatal("wrong sequence accepted")
		}
	}
}

// TestRecordEngineMatchesCodec pins that hosting the codec in an
// enclave changes accounting, not bytes: engine output equals direct
// codec output for the same keys and sequence numbers.
func TestRecordEngineMatchesCodec(t *testing.T) {
	eng := newEngine(t, nil)
	codec := NewCodec(testKeys())
	m := core.NewMeter()
	for seq := uint64(0); seq < 3; seq++ {
		want, err := codec.Seal(m, ServerToClient, seq, []byte("abc"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Seal(ServerToClient, seq, []byte("abc"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: engine record differs from codec record", seq)
		}
	}
}

// TestRecordEngineSwitchlessAmortizes pins the crossing reduction: at
// batch 16 the ring cuts the engine's SGX tally ≥2× vs synchronous.
func TestRecordEngineSwitchlessAmortizes(t *testing.T) {
	const records = 32
	run := func(xc *xcall.Config) uint64 {
		eng := newEngine(t, xc)
		for seq := uint64(0); seq < records; seq++ {
			rec, err := eng.Seal(ClientToServer, seq, []byte("payload"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Open(ClientToServer, seq, rec); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
		return eng.Meter().Snapshot().SGXU
	}
	syncSGX := run(nil)
	swl := run(&xcall.Config{Batch: 16})
	if swl*2 > syncSGX {
		t.Fatalf("switchless %d SGX, sync %d: less than 2× reduction", swl, syncSGX)
	}
}
