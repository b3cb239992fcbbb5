package mc

// The raw cache's test switches, for the external parity tests.
var (
	WithRawCache       = withRawCache
	WithLogChunk       = withChunk
	RawCacheComparable = rawCacheComparable
	Stripe             = stripeOf
)

const NarrowRawHash = narrowRawHash
