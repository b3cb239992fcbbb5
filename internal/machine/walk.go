package machine

import (
	"fmt"
	"math/rand"
)

// RandomWalk drives the system with a pseudo-random workload: at every
// step one enabled rule is chosen uniformly and applied. It is the
// quick smoke-test and throughput-measurement counterpart of
// exhaustive model checking — the "run a workload over the protocol"
// tool — and doubles as a cheap deadlock probe: a walk that wedges has
// found a real deadlock (though a clean walk proves nothing).
type WalkResult struct {
	Steps      int  // rules applied
	Deadlocked bool // reached a state with no enabled rules, not quiescent
	Quiesced   bool // the protocol drained and the walk hit the step budget idle
	// RuleMix counts applied rules by kind.
	RuleMix map[RuleKind]int
	// Violation carries an invariant/undefined-transition error, if hit.
	Violation error
	// Final is the last state reached.
	Final []byte
}

// Walk runs up to maxSteps random steps from the initial state.
func (s *System) Walk(seed int64, maxSteps int) WalkResult {
	return s.WalkFrom(s.Initial()[0], seed, maxSteps)
}

// WalkFrom runs a random walk from a given encoded state.
func (s *System) WalkFrom(start []byte, seed int64, maxSteps int) WalkResult {
	rng := rand.New(rand.NewSource(seed))
	res := WalkResult{RuleMix: make(map[RuleKind]int), Final: start}

	cur := start
	for res.Steps < maxSteps {
		rules, err := s.enabled(cur, true)
		if err != nil {
			res.Violation = err
			break
		}
		if len(rules) == 0 {
			if s.Quiescent(cur) {
				res.Quiesced = true
			} else {
				res.Deadlocked = true
			}
			break
		}
		pick := rules[rng.Intn(len(rules))]
		next, err := s.Apply(cur, pick)
		if err != nil {
			res.Violation = err
			break
		}
		res.RuleMix[pick.Kind]++
		cur = next
		res.Steps++
	}
	res.Final = cur
	return res
}

// String summarizes a walk.
func (r WalkResult) String() string {
	status := "budget exhausted"
	switch {
	case r.Violation != nil:
		status = "VIOLATION: " + r.Violation.Error()
	case r.Deadlocked:
		status = "DEADLOCK"
	case r.Quiesced:
		status = "quiesced"
	}
	return fmt.Sprintf("%d steps (%d core, %d deliver, %d process): %s",
		r.Steps, r.RuleMix[RuleCore], r.RuleMix[RuleDeliver], r.RuleMix[RuleProcess], status)
}
