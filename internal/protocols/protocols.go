// Package protocols contains the built-in protocol specifications the
// paper evaluates (Table I): MSI and MESI with blocking and
// non-blocking caches (sometimes-blocking directory), MOSI and MOESI
// with blocking and non-blocking caches (never-blocking directory), a
// CHI-style formalization (always-blocking directory), and a contrived
// Class-1 protocol with a genuine protocol deadlock.
//
// The tables are transcribed from Nagarajan et al., "A Primer on
// Memory Consistency and Cache Coherence" (2nd ed.), with the
// modifications described in paper §VII-B ("we modified the cache and
// directory controllers to add/remove blocking on forwarded requests
// and requests").
package protocols

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"minvn/internal/protocol"
)

// Shorthand event constructors keep the table transcriptions close to
// the figures.
var (
	load  = protocol.CoreEv(protocol.Load)
	store = protocol.CoreEv(protocol.Store)
	repl  = protocol.CoreEv(protocol.Replacement)
)

func msg(name string) protocol.Event { return protocol.MsgEv(name) }

func msgQ(name string, q protocol.Qualifier) protocol.Event {
	return protocol.MsgQualEv(name, q)
}

// builderFunc constructs one built-in protocol.
type builderFunc func() *protocol.Protocol

// registry maps a canonical name to its table, built and validated on
// the first Load and kept for the life of the process. The cached
// protocol is never handed out: Load returns a clone of it.
var registry = map[string]builderFunc{}

// aliases maps convenience names to canonical registry names.
var aliases = map[string]string{
	"MSI":      "MSI_blocking_cache",
	"MESI":     "MESI_blocking_cache",
	"MOSI":     "MOSI_blocking_cache",
	"MOESI":    "MOESI_blocking_cache",
	"MSI-NB":   "MSI_nonblocking_cache",
	"MESI-NB":  "MESI_nonblocking_cache",
	"MOSI-NB":  "MOSI_nonblocking_cache",
	"MOESI-NB": "MOESI_nonblocking_cache",
}

func register(name string, f builderFunc) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("protocols: %q registered twice", name))
	}
	registry[name] = sync.OnceValue(f)
}

// Names returns the canonical names of all built-in protocols, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Canonical returns the registry name that name — a canonical name or
// an alias like "MSI" — loads, and false if it names no built-in.
func Canonical(name string) (string, bool) {
	if a, ok := aliases[name]; ok {
		name = a
	}
	_, ok := registry[name]
	return name, ok
}

// Load returns a fresh copy of the named built-in protocol. Aliases
// like "MSI" (for MSI_blocking_cache) are accepted. Each built-in is
// built and validated once per process, on its first Load; every call
// returns a deep copy of that table (protocol.Protocol.Clone), so the
// caller may edit it freely and no two calls share anything.
func Load(name string) (*protocol.Protocol, error) {
	canonical, ok := Canonical(name)
	if !ok {
		return nil, fmt.Errorf("protocols: unknown protocol %q (known: %v)", name, Names())
	}
	return registry[canonical]().Clone(), nil
}

// LoadStoreOnly reports whether the protocol named (a MOSI or MOESI
// built-in, or one derived from it and named after it) is model checked
// on loads and stores only: under replacements, forwards pile up past a
// cache's single saved-requestor register, reaching cells the tables
// leave unspecified. Every tool and test decides the restriction here.
func LoadStoreOnly(name string) bool {
	return strings.HasPrefix(name, "MOSI") || strings.HasPrefix(name, "MOESI")
}

// MustLoad is Load panicking on error, for tests and examples.
func MustLoad(name string) *protocol.Protocol {
	p, err := Load(name)
	if err != nil {
		panic(err)
	}
	return p
}
