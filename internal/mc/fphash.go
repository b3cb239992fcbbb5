package mc

// State-fingerprint hashing and partition layout, extracted here so
// every consumer of the partition agrees on it by construction:
//
//   - the lock-striped visited set (shardset.go) picks a thread-level
//     shard with FingerprintMix(fp) & mask;
//   - the telemetry stripes (health.StripeOf) use the same mix over a
//     fixed 64-stripe partition (pinned against this file by
//     TestStripePartitionMatchesHealth);
//   - the distributed engine (internal/dist) assigns a state to its
//     owning worker process with OwnerOf, which applies the same mix
//     before reducing modulo the worker count.
//
// Thread-shards, telemetry stripes, and process-shards are therefore
// all functions of one mixed value: they can disagree in granularity
// but never in geometry. The fingerprint itself is FNV-1a 64 over the
// canonical state bytes — fast, dependency-free, and stable across
// platforms, which the table-driven tests in fphash_test.go pin.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint is FNV-1a 64 over the canonical state bytes.
func Fingerprint(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// FingerprintMix folds the fingerprint's high bits into the low ones.
// Every partition of fingerprint space (shard, stripe, worker) selects
// on this mixed value rather than the raw fingerprint, so the
// selection stays independent of the low bits the shard maps hash on.
func FingerprintMix(fp uint64) uint64 { return fp ^ (fp >> 32) }

// OwnerOf maps a fingerprint to its owning worker in an n-worker
// distributed search: the deterministic hash-range placement of
// internal/dist. n <= 1 means a single owner.
func OwnerOf(fp uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(FingerprintMix(fp) % uint64(n))
}
