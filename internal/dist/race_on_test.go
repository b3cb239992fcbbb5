//go:build race

package dist_test

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it, so the model's pooled scratch is rebuilt and
// allocation counts mean nothing.
const raceEnabled = true
