package obs

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Provenance records where and how a run record was produced, so
// benchmark numbers can be compared across commits and machines.
type Provenance struct {
	// GitCommit is the VCS revision baked into the binary by the Go
	// toolchain (empty for plain `go run` outside a build with VCS
	// stamping). GitDirty marks a build from a modified tree.
	GitCommit string `json:"git_commit,omitempty"`
	GitDirty  bool   `json:"git_dirty,omitempty"`

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CPUModel is the first "model name" from /proc/cpuinfo, when the
	// platform exposes one.
	CPUModel string `json:"cpu_model,omitempty"`
}

// CollectProvenance gathers the running binary's build and host facts.
// The facts that cannot change while the process runs (build info, CPU
// model) are read once; GOMAXPROCS is read on every call.
func CollectProvenance() Provenance {
	p := hostFacts()
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return p
}

var hostFacts = sync.OnceValue(func() Provenance {
	p := Provenance{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitCommit = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	return p
})

// cpuModel reads the processor model from /proc/cpuinfo; empty when
// unavailable (non-Linux, restricted environments).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
