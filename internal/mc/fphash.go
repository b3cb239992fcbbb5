package mc

// State-fingerprint hashing and partition layout, extracted here so
// every consumer of the partition agrees on it by construction:
//
//   - the telemetry stripes (stripeOf, through which the books attribute
//     every probe) are FingerprintMix(fp) over a fixed health.Stripes
//     partition;
//   - the distributed engine (internal/dist) assigns a state to its
//     owning worker process with OwnerOf, which applies the same mix
//     before reducing modulo the worker count.
//
// Telemetry stripes and process shards are therefore both functions of
// one mixed value: they can disagree in granularity but never in
// geometry. The visited set is one table per search or worker, and
// takes its home slot from the fingerprint itself (shardset.go). The
// fingerprint is FNV-1a 64 over the canonical state bytes — fast,
// dependency-free, and stable across platforms, which the table-driven
// tests in fphash_test.go pin.

import "minvn/internal/obs/health"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint is FNV-1a 64 over the canonical state bytes.
func Fingerprint(b []byte) uint64 {
	return fnv1a(fnvOffset64, b)
}

// fnv1a continues an FNV-1a 64 chain h over b.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// fingerprint4 is Fingerprint of four keys at once. One FNV-1a chain is
// bound by its multiply's latency, not by the multiplier's throughput,
// so four independent chains stepped together over the keys' common
// length cost little more than one; each key's tail is finished alone.
// The values are Fingerprint's, bit for bit.
func fingerprint4(k [4][]byte) (fp [4]uint64) {
	n := min(len(k[0]), len(k[1]), len(k[2]), len(k[3]))
	a, b, c, d := k[0][:n], k[1][:n], k[2][:n], k[3][:n]
	ha, hb, hc, hd := uint64(fnvOffset64), uint64(fnvOffset64), uint64(fnvOffset64), uint64(fnvOffset64)
	for i := range a {
		ha = (ha ^ uint64(a[i])) * fnvPrime64
		hb = (hb ^ uint64(b[i])) * fnvPrime64
		hc = (hc ^ uint64(c[i])) * fnvPrime64
		hd = (hd ^ uint64(d[i])) * fnvPrime64
	}
	return [4]uint64{fnv1a(ha, k[0][n:]), fnv1a(hb, k[1][n:]), fnv1a(hc, k[2][n:]), fnv1a(hd, k[3][n:])}
}

// FingerprintMix folds the fingerprint's high bits into the low ones.
// Every partition of fingerprint space (stripe, worker) selects
// on this mixed value rather than the raw fingerprint, whose low bits
// FNV-1a mixes least.
func FingerprintMix(fp uint64) uint64 { return fp ^ (fp >> 32) }

// stripeOf maps a fingerprint to its telemetry stripe: the
// health.Stripes-way partition of the contention profile's per-stripe
// histograms.
func stripeOf(fp uint64) int { return int(FingerprintMix(fp) & (health.Stripes - 1)) }

// OwnerOf maps a fingerprint to its owning worker in an n-worker
// distributed search: the deterministic hash-range placement of
// internal/dist. n <= 1 means a single owner.
func OwnerOf(fp uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(FingerprintMix(fp) % uint64(n))
}
