package ratls

import "sgxnet/internal/obs"

// Verifier probe kinds, observed once per admission attempt.
const (
	// KindVerifyCold is a full certificate verification: parse, proof of
	// possession, quote signature, policy, and instance registration.
	KindVerifyCold = "ratls.verify.cold"
	// KindVerifyWarm is a cache hit: the certificate's bytes matched a
	// verdict recorded under the current policy epoch.
	KindVerifyWarm = "ratls.verify.warm"
	// KindReject is an admission refused — malformed certificate, bad
	// signature, policy miss, or instance-ID replay.
	KindReject = "ratls.reject"
)

// Register the verifier's probe kinds so a strict obs.Registry can vouch
// that every kind this package fires is documented (obs never imports
// ratls, so the import is cycle-free).
func init() {
	obs.RegisterKind(KindVerifyCold, "RA-TLS certificate fully verified (cache miss)")
	obs.RegisterKind(KindVerifyWarm, "RA-TLS certificate admitted from the verification cache")
	obs.RegisterKind(KindReject, "RA-TLS certificate rejected")
}
