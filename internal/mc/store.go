package mc

import (
	"fmt"
	"math"
	"runtime/debug"
)

// Store selects how the visited set represents stored states — the
// checker's dominant memory consumer and, on large runs, a first-order
// throughput factor.
type Store int

const (
	// StoreExact keeps every state's full canonical bytes, so a
	// fingerprint hit is always byte-verified before it counts as a
	// duplicate. Results are exact: the engines' parity contract pins
	// them bit-identical across the engines.
	StoreExact Store = iota
	// StoreCompact keeps canonical bytes only while a small retained-bytes
	// budget lasts, enough to detect (and store past) fingerprint
	// collisions among the earliest states. Past the budget a state is
	// stored as its 64-bit fingerprint alone and the set degrades to
	// classic Murphi-style hash compaction: a fingerprint
	// hit that cannot be byte-verified is assumed to be a duplicate, so
	// with probability ~n²/2⁶⁵ a distinct state (and its subtree) is
	// omitted from the search. Deadlocks and violations found are still
	// real; only "complete, no deadlock" claims carry the omission
	// probability. Compact runs are deterministic and identical across
	// engines — the conflation decisions depend only on the (identical)
	// storage order — which is what the compact parity suite pins.
	StoreCompact
)

func (s Store) String() string {
	if s == StoreCompact {
		return "compact"
	}
	return "exact"
}

// MarshalText writes the store as its name, so a JSON document lists
// stores the way the -store flag takes them.
func (s Store) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ParseStore maps a CLI flag value to a Store.
func ParseStore(s string) (Store, error) {
	switch s {
	case "", "exact":
		return StoreExact, nil
	case "compact":
		return StoreCompact, nil
	}
	return StoreExact, fmt.Errorf("unknown store %q (want exact or compact)", s)
}

// CapacityError is the typed error behind the Capacity outcome: the
// visited set or the state log reached a hard implementation limit —
// int32 node ids, the set's slot table or the log's chunk count — and
// the search stopped instead of letting an index silently wrap; or it
// reached the Go memory limit, and stopped instead of being killed.
type CapacityError struct {
	Limit string // "node ids", "set slots", "state log chunks", "memory"
	Max   int64  // the limit's value
}

// capacityRemedy says, per Limit, what lets the next run go further.
var capacityRemedy = map[string]string{
	"node ids":         "lower -max-states, or spread the states over more -engine dist workers, each of which numbers its own",
	"set slots":        "lower -max-states, or split the states over more -engine dist workers",
	"state log chunks": "lower -max-states, or drop -trace so the log releases expanded states",
	"memory":           "raise GOMEMLIMIT or lower -max-states",
}

func (e *CapacityError) Error() string {
	remedy, ok := capacityRemedy[e.Limit]
	if !ok {
		remedy = "stop the search earlier"
	}
	return fmt.Sprintf("search capacity: %s limit (%d) reached; %s", e.Limit, e.Max, remedy)
}

// Capacity limits. Package vars rather than consts so the guard tests
// can lower them to reachable values; the defaults are the exact
// points past which the 32-bit indices would otherwise wrap.
var (
	// maxNodeID caps stored states: node ids (and therefore set entry
	// ids) are int32 everywhere.
	maxNodeID = int64(math.MaxInt32)
	// maxSetSlots caps the visited set's slot table, a power of two that
	// grows at 7/8 full: 2^32 slots, a 64 GiB table, hold more states
	// than there are node ids.
	maxSetSlots = int64(1) << 32
	// maxSegChunks caps the chunks of one segment of the set's arena (4
	// GiB of full chunks): the chunk index is the upper bits of a uint32
	// location, whose all-ones value is the bare-slot tag. A key that
	// needs one more starts the next segment.
	maxSegChunks = int64(1)<<(32-arenaChunkBits) - 1
	// compactVerifiedBudget is the compact store's retained-bytes budget
	// (read when a store is built): canonical bytes are retained for
	// collision verification until this many bytes are kept, then new
	// states keep only their fingerprint. The budget is consumed in
	// storage order, which is identical across engines, so compact runs
	// stay engine-independent.
	// 64 KiB keeps the earliest (hottest, most re-probed) states
	// byte-verified while the asymptotic footprint stays fingerprint-
	// sized — the point of hash compaction; a large budget would quietly
	// turn the compact store back into the exact one.
	compactVerifiedBudget = int64(64 << 10)
	// logChunk sizes the state log's chunks (64 KiB is nothing to a small
	// search and ~800 paper-sized states to a large one); maxLogChunks
	// caps their count, a state's position carrying a uint32 chunk index.
	logChunk     = 1 << 16
	maxLogChunks = int64(math.MaxUint32)
	// memoryLimit reads the Go memory limit (GOMEMLIMIT; math.MaxInt64
	// when unset), which a search's held bytes must not pass.
	memoryLimit = func() int64 { return debug.SetMemoryLimit(-1) }
)

// insertReq is one insert-or-get in a batched store operation.
type insertReq struct {
	fp  uint64
	key []byte
	// Outputs:
	fresh     bool
	id        int32
	conflated bool
	bare      bool // fresh, and stored by fingerprint alone
}

// sliceHeaderSize is the size of a []byte header, which a chunk list
// holds one of per chunk.
const sliceHeaderSize = 24

// setStats is a visited set's footprint report.
type setStats struct {
	entries int
	// arenaBytes counts full canonical bytes retained: everything for
	// the exact store, only the verification cache for the compact one.
	arenaBytes int64
	// setBytes is the set's whole footprint, read off the structures as
	// they grow: every slot table at its length, every arena chunk at its
	// capacity, and the chunk lists' headers at theirs.
	setBytes int64
}
