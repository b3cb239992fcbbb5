package dist

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
	run  atomic.Pointer[workerRun] // the active run, nil when idle
	bufs bufPool                   // free frame and body buffers, kept from run to run
}

// NewWorker builds an idle worker.
func NewWorker() *Worker { return &Worker{} }

// bufPool is a worker's free buffers: frames its senders are done with
// and bodies or frames it received, once the level they served is
// promoted. Its frames and bodies are taken from it, so that a worker in
// its stride allocates none. Nothing trims it: it keeps about as much
// as the worker ever held at once in frames and bodies.
type bufPool struct {
	mu    sync.Mutex
	free  [][]byte
	bytes atomic.Int64 // the capacity of every free buffer
}

// get returns an empty buffer of capacity at least n: a free one, the
// most recently freed that fits, or a new one with room to spare.
func (p *bufPool) get(n int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if b := p.free[i]; cap(b) >= n {
			last := len(p.free) - 1
			p.free[i], p.free[last] = p.free[last], nil
			p.free = p.free[:last]
			p.bytes.Add(-int64(cap(b)))
			return b
		}
	}
	return make([]byte, 0, n+n/8)
}

// put frees b, which nothing may read or write any more.
func (p *bufPool) put(b []byte) {
	p.mu.Lock()
	p.free = append(p.free, b[:0])
	p.bytes.Add(int64(cap(b)))
	p.mu.Unlock()
}

// workerRun is one run's state. Control calls are serialized by the
// coordinator and additionally by ctrlMu, which guards the partition;
// deliveries run concurrently with expand (peers ship batches while this
// worker is itself expanding) and touch only recvMu-guarded state —
// frontier receipt MUST NOT take ctrlMu, or two workers mid-expand
// shipping to each other would deadlock waiting for acknowledgements.
type workerRun struct {
	id       string
	self, n  int
	canceled atomic.Bool
	bufs     *bufPool // the worker's

	ctrlMu   sync.Mutex
	part     *mc.Partition
	depth    int  // depth of the partition's frontier
	expanded bool // expand(depth) done, settle(depth) pending

	recvMu      sync.Mutex
	recv        []inbox // by sender: the batches applied at this depth
	recvEntries int
	kept        [][]byte     // the buffers applied batches alias, until promote
	keptBytes   atomic.Int64 // their capacity

	peers   []peer
	seq     uint64       // next frontier batch sequence (unique across the run)
	pending []outbox     // per peer: the frame being filled
	sending atomic.Int64 // the capacity of the frames queued for or in delivery
}

// inbox is what one sender delivered at the current depth: the entries
// of its applied batches, in arrival order, and where each batch's are.
// Both slices are reused from level to level.
type inbox struct {
	states  [][]byte
	batches []received
}

// received is one applied batch: its sequence number and its entries,
// states[lo:hi] of its sender's inbox.
type received struct {
	seq    uint64
	lo, hi int
}

// outbox is one peer's frame being filled: the header's room, then n
// entries in wire form (newFrame, appendEntry).
type outbox struct {
	buf []byte
	n   int
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
		id: in.RunID, self: in.Self, n: in.Workers, bufs: &w.bufs,
		recv:  make([]inbox, in.Workers),
		peers: in.peers, pending: make([]outbox, in.Workers),
	}
	for p := range r.pending {
		if p != r.self {
			r.pending[p].buf = newFrame(w.bufs.get(0))
		}
	}
	opts := mc.Options{Store: store}
	if in.Occupancy {
		opts.Observer = sys.NewOccupancyProfiler()
	}
	// Every worker computes the same Initial() list and keeps its owned
	// slice, so the union across the fleet is exactly the sequential
	// engine's initial frontier, each state probed at exactly one owner.
	if r.part, err = mc.NewPartition(sys, opts, in.Self, in.Workers, r.heldBytes); err != nil {
		return report{}, refuse(capacity, "init: %w", err)
	}
	if old := w.run.Swap(r); old != nil {
		// The replaced run stops at its next state, and its senders
		// deliver nothing more, so an abandoned expand ships nothing
		// into its peers' new runs.
		old.canceled.Store(true)
	}
	return r.report(), nil
}

// promote makes the partition's frontier the one at the given depth and
// frees the buffers the applied batches' entries alias. The caller holds
// recvMu as well as ctrlMu: deliveries read the depth under recvMu alone.
func (r *workerRun) promote(depth int) {
	r.expanded = false
	r.depth = depth
	for i := range r.recv {
		in := &r.recv[i]
		clear(in.states)
		in.states, in.batches = in.states[:0], in.batches[:0]
	}
	for _, b := range r.kept {
		r.bufs.put(b)
	}
	clear(r.kept)
	r.kept, r.recvEntries = r.kept[:0], 0
	r.keptBytes.Store(0)
}

// heldBytes is what the worker holds for the frontier beside its
// partition, each buffer at its capacity: the frames being filled, those
// queued for or in delivery, the received batches it keeps and its free
// buffers. The partition counts them in its frontier bytes and against
// the memory limit.
func (r *workerRun) heldBytes() int64 {
	n := r.sending.Load() + r.keptBytes.Load() + r.bufs.bytes.Load()
	for _, o := range r.pending {
		n += int64(cap(o.buf))
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
// rest are appended in wire form to their owners' frames. Between
// states expand stops if ctx has ended, the run was canceled or a
// delivery failed, and queues full frames for delivery otherwise —
// keeping delivery out of the visit; a batch overshoots flushEntries by
// less than one state's fan-out. Delivery runs beside the expansion
// (sends), and expand waits for it only at the end of the level, or
// when a peer's queue is full: every queued batch is acknowledged
// before expand returns, so once all expand responses are in, every
// successor for the next depth has landed at its owner. Nothing is
// allocated per successor, and no frame per batch once the buffers are
// warm.
func (w *Worker) expand(ctx context.Context, in expandReq) (expandResp, error) {
	r, err := w.lockRun("expand", in.RunID, in.Depth, false)
	if err != nil {
		return expandResp{}, err
	}
	defer r.ctrlMu.Unlock()
	r.expanded = true
	resp := expandResp{Sent: make([]int, r.n)}
	out := r.startSends(ctx)
	ship := func(succ []byte, owner int) {
		resp.Sent[owner]++
		o := &r.pending[owner]
		o.buf = appendEntry(o.buf, succ)
		o.n++
	}
	more := func() bool {
		if r.canceled.Load() || ctx.Err() != nil {
			resp.SendFailed = errRunCanceled.Error()
		} else if err := out.failed(); err != nil {
			resp.SendFailed = err.Error()
		} else {
			out.flush(flushEntries)
		}
		return resp.SendFailed == ""
	}
	term, err := r.part.Expand(ship, more)
	terminal := term.Outcome == mc.Deadlock || term.Outcome == mc.Violation
	whole := err == nil && !terminal && resp.SendFailed == ""
	if whole {
		out.flush(1)
	}
	if serr := out.finish(!whole); whole && serr != nil {
		resp.SendFailed = serr.Error()
	}
	switch {
	case err != nil:
		return expandResp{}, refuse(capacity, "expand: %w", err)
	case terminal:
		// The trace is the core's copy of the state.
		resp.Terminal = &terminalReport{Kind: term.Outcome.Tag(), Message: term.Message, State: term.Trace[0]}
	}
	return resp, nil
}

// sendAhead bounds the frames queued for one peer behind the one in
// delivery; expand waits when a peer's queue is full. Four let the
// expansion run on through a slow acknowledgement or two while a
// worker holds at most five frames in flight per peer.
const sendAhead = 4

// sends is one level's frontier delivery: a sender goroutine per peer,
// each delivering that peer's frames one at a time in sequence order,
// so per-sender arrival order equals sequence order. A frame is never
// delivered once the run is canceled or replaced, ctx has ended, a
// delivery has failed or the level was abandoned: from then on the
// senders free what is queued until expand closes their queues.
type sends struct {
	r         *workerRun
	ctx       context.Context
	queues    []chan frame // by peer; nil for self
	wg        sync.WaitGroup
	abandoned atomic.Bool
	err       atomic.Pointer[error] // the first failure
}

// frame is one framed batch: data, the batch, is buf from its header on.
type frame struct{ buf, data []byte }

// startSends starts the level's senders.
func (r *workerRun) startSends(ctx context.Context) *sends {
	s := &sends{r: r, ctx: ctx, queues: make([]chan frame, r.n)}
	for p := range s.queues {
		if p != r.self {
			s.queues[p] = make(chan frame, sendAhead)
			s.wg.Add(1)
			go s.send(p)
		}
	}
	return s
}

// send is peer p's sender. A delivered frame is freed unless the peer
// keeps it or the delivery failed (a transport may still read a batch
// after its delivery has failed); an undelivered one is freed at once.
func (s *sends) send(p int) {
	defer s.wg.Done()
	to := s.r.peers[p]
	reuse := !to.keeps()
	for f := range s.queues[p] {
		free := true
		if !s.stopped() {
			err := to.deliver(s.ctx, f.data)
			if err != nil {
				s.fail(fmt.Errorf("dist: frontier send to worker %d: %w", p, err))
			}
			free = err == nil && reuse
		}
		s.r.sending.Add(-int64(cap(f.buf)))
		if free {
			s.r.bufs.put(f.buf)
		}
	}
}

// stopped reports whether a queued frame must no longer be delivered.
func (s *sends) stopped() bool {
	return s.abandoned.Load() || s.r.canceled.Load() || s.ctx.Err() != nil || s.err.Load() != nil
}

// fail records a failure; the first one is the level's.
func (s *sends) fail(err error) { s.err.CompareAndSwap(nil, &err) }

// failed is the first failure, or nil.
func (s *sends) failed() error {
	if e := s.err.Load(); e != nil {
		return *e
	}
	return nil
}

// flush frames the pending entries of every peer with at least atLeast
// of them, in place, and queues the frame for its sender; the peer's
// next frame is a free buffer with room for as much.
func (s *sends) flush(atLeast int) {
	r := s.r
	for p := range r.pending {
		o := &r.pending[p]
		if o.n < atLeast || p == r.self {
			continue
		}
		data, err := frameBatch(o.buf, r.self, r.depth, r.seq, o.n)
		r.seq++
		f := frame{buf: o.buf, data: data}
		o.buf, o.n = newFrame(r.bufs.get(len(o.buf))), 0
		if err != nil {
			s.fail(err)
			r.bufs.put(f.buf)
			continue
		}
		s.queue(p, f)
	}
}

// queue hands f to peer p's sender, waiting while the queue is full; a
// wait counts as send wait.
func (s *sends) queue(p int, f frame) {
	s.r.sending.Add(int64(cap(f.buf)))
	select {
	case s.queues[p] <- f:
		return
	default:
	}
	t0 := time.Now()
	select {
	case s.queues[p] <- f:
	case <-s.ctx.Done():
		s.r.sending.Add(-int64(cap(f.buf)))
		s.r.bufs.put(f.buf)
	}
	s.r.part.SendWait(time.Since(t0))
}

// finish ends the level's delivery and returns its first failure: it
// closes the queues and waits for the senders to deliver what is queued
// — the end-of-level wait, which counts as send wait — or, when the
// level is abandoned, to free it undelivered. An abandoned level's
// unframed entries are dropped.
func (s *sends) finish(abandon bool) error {
	if abandon {
		s.abandoned.Store(true)
		for p := range s.r.pending {
			if o := &s.r.pending[p]; p != s.r.self {
				o.buf, o.n = newFrame(o.buf), 0
			}
		}
	}
	for _, q := range s.queues {
		if q != nil {
			close(q)
		}
	}
	t0 := time.Now()
	s.wg.Wait()
	s.r.part.SendWait(time.Since(t0))
	if err := s.failed(); err != nil || abandon {
		return err
	}
	if s.r.canceled.Load() || s.ctx.Err() != nil {
		return errRunCanceled
	}
	return nil
}

// errRunCanceled is what expand reports when its run was canceled or
// replaced, or its caller gave up, before the level was delivered.
var errRunCanceled = errors.New("run canceled")

// deliver receives one encoded frontier batch from a peer in this
// process; a nil error acknowledges it. The worker keeps what it
// applies (keeps).
func (w *Worker) deliver(_ context.Context, data []byte) error {
	_, err := w.receive(data)
	return err
}

// keeps is true: a batch handed to a worker in this process is the
// worker's until it promotes the level, and then a free buffer of its.
func (w *Worker) keeps() bool { return true }

// receive applies one encoded frontier batch from a peer; a nil error
// acknowledges it. A batch redelivered after a lost acknowledgement
// (same sender and sequence number) is acknowledged, not applied, again.
// kept reports that the batch was applied: its entries alias data, which
// the worker keeps until it promotes the level and then frees.
func (w *Worker) receive(data []byte) (kept bool, err error) {
	b, body, count, err := decodeHeader(data)
	if err != nil {
		return false, refuse(badCall, "frontier: %w", err)
	}
	r := w.run.Load()
	if r == nil {
		return false, refuse(conflict, "frontier: no active run")
	}
	if r.canceled.Load() {
		return false, refuse(conflict, "frontier: run canceled")
	}
	if b.From < 0 || b.From >= r.n || b.From == r.self {
		return false, refuse(badCall, "frontier: bad sender %d", b.From)
	}
	r.recvMu.Lock()
	defer r.recvMu.Unlock()
	if b.Depth != r.depth {
		return false, refuse(conflict, "frontier: batch for depth %d, worker at depth %d", b.Depth, r.depth)
	}
	in := &r.recv[b.From]
	for _, applied := range in.batches {
		if applied.seq == b.Seq {
			return false, nil
		}
	}
	lo := len(in.states)
	if in.states, err = decodeEntries(in.states, body, count); err != nil {
		return false, refuse(badCall, "frontier: %w", err)
	}
	in.batches = append(in.batches, received{b.Seq, lo, len(in.states)})
	r.recvEntries += count
	r.kept = append(r.kept, data)
	r.keptBytes.Add(int64(cap(data)))
	return true, nil
}

// settle checks that every entry the peers reported sending here has
// arrived, has the partition store the received states at the next
// depth and reports its account. They are stored by (sender asc,
// sequence asc), after the level's own successors, which expand stored.
// The order is load-bearing: under symmetry reduction it decides which
// orbit representative is stored, and with it the state counts (package
// comment, "Parity"; TestDistStoredCounts). The partition recomputes a
// received state's key and fingerprint, unless it finds the state's
// bytes among its own stored states, so the wire is never trusted about
// identity or ownership. Deliveries wait meanwhile: all of this depth's
// have been acknowledged.
func (w *Worker) settle(_ context.Context, in settleReq) (report, error) {
	r, err := w.lockRun("settle", in.RunID, in.Depth, true)
	if err != nil {
		return report{}, err
	}
	defer r.ctrlMu.Unlock()
	r.recvMu.Lock()
	defer r.recvMu.Unlock()
	if r.recvEntries != in.Expect {
		return report{}, refuse(conflict,
			"settle depth %d: received %d frontier entries, peers reported sending %d",
			in.Depth, r.recvEntries, in.Expect)
	}
	for i := range r.recv {
		from := &r.recv[i]
		slices.SortFunc(from.batches, func(a, b received) int { return cmp.Compare(a.seq, b.seq) })
		for _, b := range from.batches {
			if err := r.part.Settle(from.states[b.lo:b.hi]); err != nil {
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
