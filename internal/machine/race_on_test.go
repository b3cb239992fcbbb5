//go:build race

package machine

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it, so pooled scratch is rebuilt and allocation counts
// mean nothing.
const raceEnabled = true
