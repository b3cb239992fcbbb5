package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/health"
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
// (a capacity stop happens at settle instead). State is the offending
// raw state: with no parent table, like DisableTraces, the trace is the
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
// every settle: the snapshot of its slice of the search (mc.Books'),
// with its occupancy profile in it. The coordinator keeps each worker's
// latest report and merges them with mc.MergeSnapshots.
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
	capacity                // the visited set reached a limit (*mc.CapacityError): the run ends as Capacity
)

func refuse(kind errKind, format string, args ...any) error {
	return &callError{kind, fmt.Errorf(format, args...)}
}

func (e *callError) Error() string { return e.err.Error() }
func (e *callError) Unwrap() error { return e.err }

// Worker hosts the distributed engine's per-process state: the owned
// slice of the visited set, the current frontier, and the accumulating
// candidates for the next depth. One Worker serves one run at a time; a
// new init replaces and stops any previous run. A Worker is a member
// and a peer, called directly in process and through Handler over HTTP.
type Worker struct {
	run atomic.Pointer[workerRun] // the active run, nil when idle
}

// NewWorker builds an idle worker.
func NewWorker() *Worker { return &Worker{} }

// workerRun is one run's state. Control calls are serialized by the
// coordinator and additionally by ctrlMu; deliver runs concurrently
// with expand (peers ship batches while this worker is itself
// expanding) and touches only candMu-guarded state — frontier receipt
// MUST NOT take ctrlMu, or two workers mid-expand shipping to each
// other would deadlock waiting for acknowledgements.
type workerRun struct {
	id       string
	self, n  int
	sys      *machine.System
	visited  *mc.VisitedStore
	canceled atomic.Bool

	ctrlMu   sync.Mutex
	depth    int      // depth of the states in frontier
	frontier levelLog // settled states awaiting expansion
	expanded bool     // expand(depth) done, settle(depth) pending
	cands    candidates

	candMu      sync.Mutex
	recv        [][]*batch // by sender: the batches applied at this depth, in arrival order
	recvEntries int

	// Cumulative accounting: mc's books, plus the position a snapshot
	// reports.
	books      *mc.Books
	states     int
	expansions int
	maxDepth   int
	key        []byte // AppendCanonical's destination, under ctrlMu
	prof       *machine.OccupancyProfiler

	peers   []peer
	seq     uint64   // next frontier batch sequence (unique across the run)
	pending []outbox // per-peer unflushed states
}

// levelLog is one BFS level's states back to back in one byte slice,
// in storage order: the level-synchronous counterpart of mc's stateLog.
// A worker's frontier is one: expand reads it, and settle rebuilds it
// in place — by then every state in it has been expanded — so its bytes
// are reused level after level and a stored state is copied once.
type levelLog struct {
	buf  []byte
	ends []int
}

func (l *levelLog) reset() { l.buf, l.ends = l.buf[:0], l.ends[:0] }

func (l *levelLog) add(s []byte) {
	l.buf = append(l.buf, s...)
	l.ends = append(l.ends, len(l.buf))
}

func (l *levelLog) held() int64 { return int64(cap(l.buf) + 8*cap(l.ends)) }

// candidates are a level's self-owned successors in generation order,
// kept the way mc's collector keeps them so settle can store one
// without canonicalizing it again: raw bytes and, when it differs, the
// canonical key back to back in one arena, plus the fingerprint. The
// arena is reused level after level.
type candidates struct {
	arena []byte
	spans []candSpan
}

// candSpan locates one candidate: raw bytes in arena[lo:mid], its key in
// arena[mid:end], or the raw bytes again when mid == end.
type candSpan struct {
	lo, mid, end int
	fp           uint64
}

func (c *candidates) reset() { c.arena, c.spans = c.arena[:0], c.spans[:0] }

// add copies a lent successor and its key (which may alias it) in.
func (c *candidates) add(raw, key []byte, fp uint64) {
	lo := len(c.arena)
	c.arena = append(c.arena, raw...)
	mid := len(c.arena)
	if &key[0] != &raw[0] {
		c.arena = append(c.arena, key...)
	}
	c.spans = append(c.spans, candSpan{lo, mid, len(c.arena), fp})
}

// at returns the bytes sp locates, valid until the next add or reset.
func (c *candidates) at(sp candSpan) (raw, key []byte) {
	raw = c.arena[sp.lo:sp.mid:sp.mid]
	if sp.mid == sp.end {
		return raw, raw
	}
	return raw, c.arena[sp.mid:sp.end:sp.end]
}

func (c *candidates) held() int64 { return int64(cap(c.arena) + 32*cap(c.spans)) } // a candSpan is 32 B

// outbox is one peer's unflushed successors, already in entry wire form
// (appendEntry); the buffer is reused once a flush has framed it.
type outbox struct {
	entries []byte
	n       int
}

// init builds the run's system, settles its owned initial states at
// depth 0 and reports its first account.
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
		sys: sys, visited: mc.NewVisitedStore(store, 1),
		books:   mc.NewBooks(sys, 1),
		peers:   in.peers,
		pending: make([]outbox, in.Workers),
	}
	if in.Occupancy {
		r.prof = sys.NewOccupancyProfiler()
	}
	// Settle the owned initial states at depth 0. Every worker computes
	// the same Initial() list and keeps its owned slice, so the union
	// across the fleet is exactly the sequential engine's initial
	// frontier, each state probed at exactly one owner.
	for _, s := range sys.Initial() {
		key := r.canonical(s)
		fp := mc.Fingerprint(key)
		if mc.OwnerOf(fp, r.n) != r.self {
			continue
		}
		if err := r.store(s, key, fp, 0); err != nil {
			return report{}, fmt.Errorf("init: %w", err)
		}
	}
	r.promote(0)
	if old := w.run.Swap(r); old != nil {
		// The replaced run stops at its next state, so an abandoned
		// expand ships nothing more into its peers' new runs.
		old.canceled.Store(true)
	}
	return r.report(), nil
}

// canonical returns s's canonical form, in the run's key buffer unless s
// is canonical already; it is valid until the next call. Like every
// control-path method it runs under ctrlMu (or before the run is
// published).
func (r *workerRun) canonical(s []byte) []byte {
	ck := r.sys.AppendCanonical(r.key, s)
	if len(ck) > 0 && &ck[0] != &s[0] {
		r.key = ck[:0]
	}
	return ck
}

// store probes one candidate at the given depth by its canonical key
// and fingerprint and, if it is fresh, copies its raw bytes into the
// frontier — the only copy a stored state gets, and the distributed
// counterpart of the sequential engine's settle.
func (r *workerRun) store(s, key []byte, fp uint64, depth int) error {
	_, fresh, conflated, err := r.visited.Insert(fp, key, int32(r.states))
	if err != nil {
		return err
	}
	r.books.Probe(fp, int32(depth), fresh, conflated)
	if !fresh {
		return nil
	}
	r.states++
	r.maxDepth = max(r.maxDepth, depth)
	r.frontier.add(s)
	if r.prof != nil {
		r.prof.Observe(s)
	}
	return nil
}

// promote makes the settled frontier the one at the given depth, empties
// the candidate arena and drops the received batches, whose bodies their
// entries alias. The depth write happens under candMu (in addition to
// the caller's ctrlMu) because deliver reads it under candMu alone.
func (r *workerRun) promote(depth int) {
	r.cands.reset()
	r.expanded = false
	r.candMu.Lock()
	r.depth = depth
	r.recv = make([][]*batch, r.n)
	r.recvEntries = 0
	r.candMu.Unlock()
}

// heldBytes is what the worker holds beside its visited set: the
// frontier, the candidate arena and the pending peer buffers, each at
// its capacity, the way mc counts its state log's free chunks. Received
// batch bodies are not among them: a worker reports only after promote
// has dropped them.
func (r *workerRun) heldBytes() int64 {
	n := r.frontier.held() + r.cands.held()
	for _, o := range r.pending {
		n += int64(cap(o.entries))
	}
	return n
}

// report is the worker's account so far. It has no clock: the
// coordinator merges over its own, and stamps the search's identity.
func (r *workerRun) report() report {
	_, arena, setB := r.visited.Stats()
	s := mc.Snapshot{
		States:     r.states,
		Frontier:   len(r.frontier.ends),
		MaxDepth:   r.maxDepth,
		Expansions: int64(r.expansions),
		Health:     &health.Report{ArenaBytes: arena, SetBytes: setB, FrontierBytes: r.heldBytes()},
	}
	if r.prof != nil {
		s.Occupancy = r.prof.Stats()
	}
	return report{Stats: r.books.Snapshot(s)}
}

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

// expand runs the worker's share of one BFS level: expand every
// frontier state, keep self-owned successors, and ship the rest to
// their owners. Every shipped batch is acknowledged before expand
// returns, so once all expand responses are in, every candidate for
// the next depth has landed at its owner. The visit canonicalizes and
// fingerprints each successor once, in the machine's work buffer: a
// self-owned one goes to the candidate arena with its key and
// fingerprint, which settle stores from; a peer's is appended in wire
// form to that peer's pending buffer. Nothing is allocated per
// successor once the buffers are warm. Between states expand stops if
// ctx has ended or the run was canceled.
func (w *Worker) expand(ctx context.Context, in expandReq) (expandResp, error) {
	r, err := w.lockRun("expand", in.RunID, in.Depth, false)
	if err != nil {
		return expandResp{}, err
	}
	defer r.ctrlMu.Unlock()
	resp := expandResp{Sent: make([]int, r.n)}
	visit := func(succ []byte, rule int) {
		r.books.Fire(rule)
		key := r.canonical(succ)
		fp := mc.Fingerprint(key)
		owner := mc.OwnerOf(fp, r.n)
		if owner == r.self {
			r.cands.add(succ, key, fp)
			return
		}
		resp.Sent[owner]++
		o := &r.pending[owner]
		o.entries = appendEntry(o.entries, succ)
		o.n++
	}
	lo := 0
	for _, hi := range r.frontier.ends {
		st := r.frontier.buf[lo:hi:hi]
		lo = hi
		if r.canceled.Load() || ctx.Err() != nil {
			resp.SendFailed = "run canceled"
			return resp, nil
		}
		t0 := r.books.StartExpansion(r.expansions)
		n, err := r.sys.Expand(st, visit)
		r.books.EndExpansion(t0)
		r.expansions++
		switch {
		case err != nil:
			resp.Terminal = &terminalReport{Kind: "violation", Message: err.Error()}
		case n == 0 && !r.sys.Quiescent(st):
			resp.Terminal = &terminalReport{Kind: "deadlock", Message: "no enabled rule in non-quiescent state"}
		}
		if resp.Terminal != nil {
			// A copy: in process the report is not re-encoded, and st is
			// the frontier's buffer.
			resp.Terminal.State = slices.Clone(st)
			r.expanded = true
			return resp, nil
		}
		r.books.AddGenerated(n)
		// Flushing between expansions keeps delivery out of the visit; a
		// batch overshoots flushEntries by less than one state's fan-out.
		if err := r.flush(ctx, flushEntries); err != nil {
			resp.SendFailed = err.Error()
			r.expanded = true
			return resp, nil
		}
	}
	if err := r.flush(ctx, 1); err != nil {
		resp.SendFailed = err.Error()
	}
	r.expanded = true
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
		r.books.SendWait(time.Since(t0))
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
	r.candMu.Lock()
	defer r.candMu.Unlock()
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
// arrived, stores the level's fresh candidates as the frontier at the
// next depth and reports its account. It stores in a fixed
// order: local candidates in generation order, then received batches by
// (sender asc, sequence asc). The order is load-bearing: under symmetry
// reduction it decides which orbit representative is stored, and with
// it the state counts (package comment, "Parity"; TestDistStoredCounts).
// Every state in the frontier has been expanded, so the next level is
// built in its place. Local candidates come with their key and
// fingerprint; a received state's are recomputed here, so the wire is
// never trusted about identity or ownership.
func (w *Worker) settle(_ context.Context, in settleReq) (report, error) {
	r, err := w.lockRun("settle", in.RunID, in.Depth, true)
	if err != nil {
		return report{}, err
	}
	defer r.ctrlMu.Unlock()
	r.candMu.Lock()
	got, batches := r.recvEntries, r.recv
	r.candMu.Unlock()
	if got != in.Expect {
		return report{}, refuse(conflict,
			"settle depth %d: received %d frontier entries, peers reported sending %d",
			in.Depth, got, in.Expect)
	}
	depth := r.depth + 1
	r.frontier.reset()
	for _, sp := range r.cands.spans {
		raw, key := r.cands.at(sp)
		if err := r.store(raw, key, sp.fp, depth); err != nil {
			return report{}, refuse(capacity, "settle: %w", err)
		}
	}
	for _, bs := range batches {
		sort.Slice(bs, func(i, j int) bool { return bs[i].Seq < bs[j].Seq })
		for _, b := range bs {
			for _, s := range b.States {
				key := r.canonical(s)
				if err := r.store(s, key, mc.Fingerprint(key), depth); err != nil {
					return report{}, refuse(capacity, "settle: %w", err)
				}
			}
		}
	}
	r.promote(depth)
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
