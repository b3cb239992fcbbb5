package machine

import (
	"fmt"
	"strings"
)

// Coherence invariants in the style of Murphi models (paper §VII uses
// Murphi's built-in deadlock detection; industrial models additionally
// assert the Single-Writer-Multiple-Reader invariant). The machine
// checks them on every explored state when Config.Invariants is set.
//
// Because the checks are expressed over *stable* controller states,
// they hold in every protocol here: a cache only enters a write state
// after its transaction completes, and transient states make no
// read/write claims.

// Permission classifies what a stable cache state allows.
type Permission int

const (
	// PermNone: no access (I, or any transient state).
	PermNone Permission = iota
	// PermRead: read-only access (S-like states).
	PermRead
	// PermWrite: read/write access (M/E-like states).
	PermWrite
)

// writeStates and readStates classify the stable cache states of the
// built-in protocol families by name. Unknown stable states are
// treated as PermNone; protocols with novel state names can extend
// the table via Config.Permissions.
var defaultPermissions = map[string]Permission{
	// MOESIF-family names.
	"M": PermWrite, "E": PermWrite,
	"O": PermRead, "S": PermRead, "F": PermRead,
	"I": PermNone,
	// CHI names.
	"UD": PermWrite, "UC": PermWrite,
	"SC": PermRead, "SD": PermRead,
	// The custom VI example.
	"V": PermWrite,
}

// InvariantViolation describes a failed coherence check.
type InvariantViolation struct {
	Name   string
	Detail string
}

func (v *InvariantViolation) Error() string {
	return fmt.Sprintf("invariant %s violated: %s", v.Name, v.Detail)
}

// permissionOf returns the access a stable cache state grants, using
// the configured override table first. New resolves it once per state
// id into cachePerm, where transient states grant nothing.
func (s *System) permissionOf(stateName string) Permission {
	if s.cfg.Permissions != nil {
		if p, ok := s.cfg.Permissions[stateName]; ok {
			return p
		}
	}
	if p, ok := defaultPermissions[stateName]; ok {
		return p
	}
	return PermNone
}

// checkInvariants validates a decoded state. It returns nil or an
// *InvariantViolation.
func (s *System) checkInvariants(st *state) error {
	if !s.cfg.Invariants {
		return nil
	}
	for a := 0; a < s.cfg.Addrs; a++ {
		writers, readers := 0, 0
		for c := 0; c < s.cfg.Caches; c++ {
			switch s.cachePerm[st.cache[c][a].state] {
			case PermWrite:
				writers++
			case PermRead:
				readers++
			}
		}
		// SWMR: a writer excludes every other reader or writer.
		if writers > 1 || (writers == 1 && readers > 0) {
			var holders []string
			for c := 0; c < s.cfg.Caches; c++ {
				if id := st.cache[c][a].state; s.cachePerm[id] != PermNone {
					holders = append(holders, fmt.Sprintf("c%d=%s", c, s.cache.states[id]))
				}
			}
			return &InvariantViolation{
				Name: "SWMR",
				Detail: fmt.Sprintf("a%d held by %s (%d writers, %d readers)",
					a, strings.Join(holders, ", "), writers, readers),
			}
		}

		// Note: we deliberately do NOT assert that the recorded owner
		// holds permission. Protocols with unconfirmed ownership
		// grants (MESIF's Data-FX) legally pass through states where
		// the recorded owner has already dropped the line; the nack
		// machinery recovers, and asserting here would flag those
		// sound executions.
		de := st.dir[a]

		// Ack counters must never underflow below the worst case
		// (more acks received than sharers exist) or overflow.
		for c := 0; c < s.cfg.Caches; c++ {
			acks := int(st.cache[c][a].acks)
			if acks < -s.cfg.Caches || acks > s.cfg.Caches {
				return &InvariantViolation{
					Name:   "AckBounds",
					Detail: fmt.Sprintf("a%d cache %d ack counter %d out of [-%d,%d]", a, c, acks, s.cfg.Caches, s.cfg.Caches),
				}
			}
		}
		if acks := int(de.acks); acks < -s.cfg.Caches || acks > s.cfg.Caches {
			return &InvariantViolation{
				Name:   "AckBounds",
				Detail: fmt.Sprintf("a%d directory ack counter %d out of range", a, acks),
			}
		}
	}
	return nil
}
