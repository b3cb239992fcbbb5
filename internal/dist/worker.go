package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minvn/internal/machine"
	"minvn/internal/mc"
)

// Control-plane request/response bodies. One coordinator drives each
// worker; control calls (init/expand/settle/cancel) never overlap,
// while frontier batches from peers arrive concurrently with expand.
type initReq struct {
	RunID   string `json:"run_id"`
	Self    int    `json:"self"`
	Workers int    `json:"workers"`
	// Spec is the machine.Config to build, in its JSON form.
	Spec      json.RawMessage `json:"spec"`
	Store     string          `json:"store"`
	Occupancy bool            `json:"occupancy"`
	// Peers[i] is worker i's base URL over HTTP, and peers[i] what this
	// worker delivers to it (Workers in process); [Self] is unused.
	Peers []string `json:"peers"`
	peers []peer
}

type expandReq struct {
	RunID string `json:"run_id"`
	Depth int    `json:"depth"`
}

// terminalReport describes a deadlock or violation hit while expanding
// (a capacity stop is a refusal instead). State is the offending raw
// state: with no parent table, like DisableTraces, the trace is the
// single terminal state.
type terminalReport struct {
	Kind    string `json:"kind"` // "deadlock" or "violation"
	Message string `json:"message"`
	State   []byte `json:"state,omitempty"`
}

type expandResp struct {
	// Sent[i] is the number of frontier entries this worker shipped to
	// worker i at this depth (Sent[Self] is always 0; self-owned
	// successors stay local). The coordinator sums columns to build
	// each worker's settle-time Expect.
	Sent       []int           `json:"sent"`
	Terminal   *terminalReport `json:"terminal,omitempty"`
	SendFailed string          `json:"send_failed,omitempty"`
}

type settleReq struct {
	RunID string `json:"run_id"`
	Depth int    `json:"depth"`
	// Expect is the number of frontier entries every peer reported
	// sending here at this depth — the in-flight accounting check. A
	// mismatch means a delivery was lost or duplicated despite the
	// per-batch acknowledgements, and fails the job rather than
	// silently corrupting the search.
	Expect int `json:"expect"`
}

type cancelReq struct {
	RunID string `json:"run_id"`
}

// report is one worker's cumulative account, the answer to init and to
// every settle: the snapshot of its slice of the search (its
// mc.Partition's), with its occupancy profile in it. The coordinator
// keeps each worker's latest report and merges them with
// mc.MergeSnapshots.
type report struct {
	Stats mc.Snapshot `json:"stats"`
}

// callError is a call a worker refuses or cannot complete; its kind is
// what the caller may conclude, spelled as a status code over HTTP.
type callError struct {
	kind errKind
	err  error
}

type errKind int

const (
	badCall  errKind = iota // the request is malformed
	conflict                // no such run, another depth, a receipt count mismatch: retrying cannot help
	capacity                // the search reached a limit (*mc.CapacityError): the run ends as Capacity
)

func refuse(kind errKind, format string, args ...any) error {
	return &callError{kind, fmt.Errorf(format, args...)}
}

func (e *callError) Error() string { return e.err.Error() }
func (e *callError) Unwrap() error { return e.err }

// Worker hosts the distributed engine's per-process state: one run's
// partition of the search — its owned slice of the visited set and its
// frontier — and the frontier batches peers have sent it for the next
// depth. One Worker serves one run at a time; a new init replaces and
// stops any previous run. A Worker is a member and a peer, called
// directly in process and through Handler over HTTP.
type Worker struct {
	run atomic.Pointer[workerRun] // the active run, nil when idle
}

// NewWorker builds an idle worker.
func NewWorker() *Worker { return &Worker{} }

// workerRun is one run's state. Control calls are serialized by the
// coordinator and additionally by ctrlMu, which guards the partition;
// deliver runs concurrently with expand (peers ship batches while this
// worker is itself expanding) and touches only recvMu-guarded state —
// frontier receipt MUST NOT take ctrlMu, or two workers mid-expand
// shipping to each other would deadlock waiting for acknowledgements.
type workerRun struct {
	id       string
	self, n  int
	canceled atomic.Bool

	ctrlMu   sync.Mutex
	part     *mc.Partition
	depth    int  // depth of the partition's frontier
	expanded bool // expand(depth) done, settle(depth) pending

	recvMu      sync.Mutex
	recv        [][]*batch // by sender: the batches applied at this depth, in arrival order
	recvEntries int

	peers   []peer
	seq     uint64   // next frontier batch sequence (unique across the run)
	pending []outbox // per-peer unflushed states
}

// outbox is one peer's unflushed successors, already in entry wire form
// (appendEntry); the buffer is reused once a flush has framed it.
type outbox struct {
	entries []byte
	n       int
}

// init builds the run's system and partition, which settles its owned
// initial states at depth 0, and reports its first account.
func (w *Worker) init(_ context.Context, in initReq) (report, error) {
	if len(in.Spec) == 0 || in.Workers < 1 || in.Self < 0 || in.Self >= in.Workers ||
		len(in.peers) != in.Workers || in.RunID == "" {
		return report{}, refuse(badCall, "init: bad worker geometry (self %d of %d, %d peers)",
			in.Self, in.Workers, len(in.peers))
	}
	// Every worker builds the same system from the same config document
	// (machine.Config's JSON form): the same transitions, canonicalizer
	// and state encoding, which the whole ownership scheme rests on.
	store, err := mc.ParseStore(in.Store)
	if err != nil {
		return report{}, refuse(badCall, "init: %v", err)
	}
	var cfg machine.Config
	if err := json.Unmarshal(in.Spec, &cfg); err != nil {
		return report{}, refuse(badCall, "init: decode config: %v", err)
	}
	sys, err := machine.New(cfg)
	if err != nil {
		return report{}, refuse(badCall, "init: %v", err)
	}
	r := &workerRun{
		id: in.RunID, self: in.Self, n: in.Workers,
		peers:   in.peers,
		pending: make([]outbox, in.Workers),
	}
	opts := mc.Options{Store: store}
	if in.Occupancy {
		opts.Observer = sys.NewOccupancyProfiler()
	}
	// Every worker computes the same Initial() list and keeps its owned
	// slice, so the union across the fleet is exactly the sequential
	// engine's initial frontier, each state probed at exactly one owner.
	if r.part, err = mc.NewPartition(sys, opts, in.Self, in.Workers, r.pendingBytes); err != nil {
		return report{}, refuse(capacity, "init: %w", err)
	}
	r.promote(0)
	if old := w.run.Swap(r); old != nil {
		// The replaced run stops at its next state, so an abandoned
		// expand ships nothing more into its peers' new runs.
		old.canceled.Store(true)
	}
	return r.report(), nil
}

// promote makes the partition's frontier the one at the given depth and
// drops the received batches, whose bodies their entries alias. The
// depth write happens under recvMu (in addition to the caller's ctrlMu)
// because deliver reads it under recvMu alone.
func (r *workerRun) promote(depth int) {
	r.expanded = false
	r.recvMu.Lock()
	r.depth = depth
	r.recv = make([][]*batch, r.n)
	r.recvEntries = 0
	r.recvMu.Unlock()
}

// pendingBytes is what the worker holds for its peers, each pending
// buffer at its capacity: the partition counts it in its frontier bytes
// and against the memory limit. Received batch bodies are not among
// them: a worker reports only after promote has dropped them.
func (r *workerRun) pendingBytes() int64 {
	var n int64
	for _, o := range r.pending {
		n += int64(cap(o.entries))
	}
	return n
}

// report is the worker's account so far. The coordinator merges it over
// its own clock, and stamps the search's identity.
func (r *workerRun) report() report { return report{Stats: r.part.Snapshot()} }

// lockRun returns the named run with ctrlMu held, for the caller to
// release, if it is active, at depth, and expanded there or not as asked.
func (w *Worker) lockRun(op, runID string, depth int, expanded bool) (*workerRun, error) {
	r := w.run.Load()
	if r == nil || r.id != runID {
		return nil, refuse(conflict, "no active run %q", runID)
	}
	r.ctrlMu.Lock()
	if depth != r.depth || r.expanded != expanded {
		defer r.ctrlMu.Unlock()
		return nil, refuse(conflict, "%s depth %d: worker at depth %d (expanded=%v)", op, depth, r.depth, r.expanded)
	}
	return r, nil
}

// expand runs the worker's share of one BFS level: the partition
// expands every frontier state, settling self-owned successors, and the
// rest are appended in wire form to their owners' pending buffers.
// Between states expand stops if ctx has ended or the run was canceled,
// and ships full buffers otherwise — keeping delivery out of the visit;
// a batch overshoots flushEntries by less than one state's fan-out.
// Every shipped batch is acknowledged before expand returns, so once all
// expand responses are in, every successor for the next depth has landed
// at its owner. Nothing is allocated per successor once the buffers are
// warm.
func (w *Worker) expand(ctx context.Context, in expandReq) (expandResp, error) {
	r, err := w.lockRun("expand", in.RunID, in.Depth, false)
	if err != nil {
		return expandResp{}, err
	}
	defer r.ctrlMu.Unlock()
	r.expanded = true
	resp := expandResp{Sent: make([]int, r.n)}
	ship := func(succ []byte, owner int) {
		resp.Sent[owner]++
		o := &r.pending[owner]
		o.entries = appendEntry(o.entries, succ)
		o.n++
	}
	more := func() bool {
		if r.canceled.Load() || ctx.Err() != nil {
			resp.SendFailed = "run canceled"
		} else if err := r.flush(ctx, flushEntries); err != nil {
			resp.SendFailed = err.Error()
		}
		return resp.SendFailed == ""
	}
	term, err := r.part.Expand(ship, more)
	switch {
	case err != nil:
		return expandResp{}, refuse(capacity, "expand: %w", err)
	case term.Outcome == mc.Deadlock || term.Outcome == mc.Violation:
		// The trace is the core's copy of the state.
		resp.Terminal = &terminalReport{Kind: term.Outcome.Tag(), Message: term.Message, State: term.Trace[0]}
	case resp.SendFailed == "":
		if err := r.flush(ctx, 1); err != nil {
			resp.SendFailed = err.Error()
		}
	}
	return resp, nil
}

// flush ships the pending states of every peer with at least atLeast
// of them as one frontier batch each. Sends to one peer are strictly
// sequential (the next batch is not built until this one is
// acknowledged), so per-sender arrival order equals sequence order. The
// pending buffer is reused at once: encodeBatch framed a copy, which no
// later batch overwrites, because a transport may still read a batch
// after its delivery has failed, and a receiver in this process keeps
// the one it was handed.
func (r *workerRun) flush(ctx context.Context, atLeast int) error {
	for p := range r.pending {
		o := &r.pending[p]
		if o.n < atLeast {
			continue
		}
		data, err := encodeBatch(r.self, r.depth, r.seq, o.n, o.entries)
		r.seq++
		o.entries, o.n = o.entries[:0], 0
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = r.peers[p].deliver(ctx, data)
		r.part.SendWait(time.Since(t0))
		if err != nil {
			return fmt.Errorf("dist: frontier send to worker %d: %w", p, err)
		}
	}
	return nil
}

// deliver receives one encoded frontier batch from a peer; a nil error
// acknowledges it. A batch redelivered after a lost acknowledgement
// (same sender and sequence number) is acknowledged, not applied, again.
func (w *Worker) deliver(_ context.Context, data []byte) error {
	b, err := decodeBatch(data)
	if err != nil {
		return refuse(badCall, "frontier: %w", err)
	}
	r := w.run.Load()
	if r == nil {
		return refuse(conflict, "frontier: no active run")
	}
	if r.canceled.Load() {
		return refuse(conflict, "frontier: run canceled")
	}
	if b.From < 0 || b.From >= r.n || b.From == r.self {
		return refuse(badCall, "frontier: bad sender %d", b.From)
	}
	r.recvMu.Lock()
	defer r.recvMu.Unlock()
	if b.Depth != r.depth {
		return refuse(conflict, "frontier: batch for depth %d, worker at depth %d", b.Depth, r.depth)
	}
	for _, applied := range r.recv[b.From] {
		if applied.Seq == b.Seq {
			return nil
		}
	}
	r.recv[b.From] = append(r.recv[b.From], b)
	r.recvEntries += len(b.States)
	return nil
}

// settle checks that every entry the peers reported sending here has
// arrived, has the partition store the received states at the next
// depth and reports its account. They are stored by (sender asc,
// sequence asc), after the level's own successors, which expand stored.
// The order is load-bearing: under symmetry reduction it decides which
// orbit representative is stored, and with it the state counts (package
// comment, "Parity"; TestDistStoredCounts). The partition recomputes a
// received state's key and fingerprint, so the wire is never trusted
// about identity or ownership.
func (w *Worker) settle(_ context.Context, in settleReq) (report, error) {
	r, err := w.lockRun("settle", in.RunID, in.Depth, true)
	if err != nil {
		return report{}, err
	}
	defer r.ctrlMu.Unlock()
	r.recvMu.Lock()
	got, batches := r.recvEntries, r.recv
	r.recvMu.Unlock()
	if got != in.Expect {
		return report{}, refuse(conflict,
			"settle depth %d: received %d frontier entries, peers reported sending %d",
			in.Depth, got, in.Expect)
	}
	for _, bs := range batches {
		sort.Slice(bs, func(i, j int) bool { return bs[i].Seq < bs[j].Seq })
		for _, b := range bs {
			if err := r.part.Settle(b.States); err != nil {
				return report{}, refuse(capacity, "settle: %w", err)
			}
		}
	}
	r.promote(r.depth + 1)
	return r.report(), nil
}

// cancel stops the run it names (any run, for an empty id) and drops
// it, so an in-flight expand aborts between states. It never takes
// ctrlMu: it must land while an expand stuck retrying sends holds it.
func (w *Worker) cancel(_ context.Context, in cancelReq) error {
	if r := w.run.Load(); r != nil && (in.RunID == "" || r.id == in.RunID) {
		r.canceled.Store(true)
		w.run.CompareAndSwap(r, nil)
	}
	return nil
}
