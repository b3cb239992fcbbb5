package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minvn/internal/icn"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/health"
)

// expandSample matches the sequential engine's 1-in-N expansion-timing
// sample period and, like it, brackets expansion, canonicalization and
// fingerprinting of one state's successors, so per-worker expand-time
// profiles are comparable.
const expandSample = 8

// sendRetries and sendBackoff govern frontier-send failure recovery: a
// failed POST is retried with doubling backoff (batch sequence numbers
// make redelivery idempotent), and only after the last retry fails
// does the worker report the send failure, which fails the whole job.
const (
	sendRetries = 4
	sendBackoff = 25 * time.Millisecond
)

// maxControlBody caps JSON control-request bodies (the model spec
// dominates; real specs are a few KiB).
const maxControlBody = 8 << 20

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
	// Peers[i] is worker i's base URL; Peers[Self] is unused.
	Peers []string `json:"peers"`
}

type initResp struct {
	Stats statsBlock `json:"stats"`
}

type expandReq struct {
	RunID string `json:"run_id"`
	Depth int    `json:"depth"`
}

// terminalReport describes a deadlock or violation hit while expanding
// (a capacity stop happens at settle, whose handler answers 507
// instead). State is the offending raw state (the distributed engine
// has no parent table, so like DisableTraces the trace is the single
// terminal state).
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

type settleResp struct {
	Stats    statsBlock `json:"stats"`
	Frontier int        `json:"frontier"`
}

type cancelReq struct {
	RunID string `json:"run_id"`
}

// statsBlock is one worker's cumulative accounting, reported after
// init and after every settle. Because every field is cumulative, the
// coordinator merges by summing each worker's latest block — a
// re-reported block replaces, never double-counts.
type statsBlock struct {
	States     int                 `json:"states"`
	Expansions int64               `json:"expansions"`
	Generated  int64               `json:"generated"`
	Probes     int64               `json:"probes"`
	DedupHits  int64               `json:"dedup_hits"`
	MaxDepth   int                 `json:"max_depth"`
	DepthHist  []int64             `json:"depth_hist"`
	Rules      map[string]int64    `json:"rule_firings,omitempty"`
	Health     *health.Report      `json:"health,omitempty"`
	Occupancy  *icn.OccupancyStats `json:"occupancy,omitempty"`
	Frontier   int                 `json:"frontier"`
}

// Worker hosts the distributed engine's per-process state: the owned
// slice of the visited set, the current frontier, and the accumulating
// candidates for the next depth. One Worker serves one run at a time;
// a new init replaces any previous run.
type Worker struct {
	mu  sync.Mutex // guards run pointer swaps only
	run *workerRun
	mux *http.ServeMux
}

// NewWorker builds an idle worker.
func NewWorker() *Worker {
	w := &Worker{mux: http.NewServeMux()}
	w.mux.HandleFunc("POST /dist/v1/init", w.handleInit)
	w.mux.HandleFunc("POST /dist/v1/expand", w.handleExpand)
	w.mux.HandleFunc("POST /dist/v1/frontier", w.handleFrontier)
	w.mux.HandleFunc("POST /dist/v1/settle", w.handleSettle)
	w.mux.HandleFunc("POST /dist/v1/cancel", w.handleCancel)
	return w
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler { return w.mux }

func (w *Worker) current() *workerRun {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.run
}

// workerRun is one run's state. Control handlers are serialized by the
// coordinator and additionally by ctrlMu; the frontier handler runs
// concurrently with expand (peers ship batches while this worker is
// itself expanding) and touches only candMu-guarded state — frontier
// receipt MUST NOT take ctrlMu, or two workers mid-expand shipping to
// each other would deadlock waiting for acknowledgements.
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
	recvSeen    map[int]map[uint64]bool // sender → batch seqs already applied
	recvBatches map[int][]*batch        // sender → batches, arrival order
	recvEntries int

	// Cumulative accounting, mirroring mc's tracker field for field so
	// the merged numbers are comparable to an in-process run.
	states     int
	expansions int64
	generated  int64
	probes     int64
	dedupHits  int64
	unverified int64
	maxDepth   int
	depthHist  []int64
	rules      []int64 // firings by rule id (sys.RuleNames)
	key        []byte  // AppendCanonical's destination, under ctrlMu
	sampler    health.ShardSampler
	wset       *health.WorkerSet
	prof       *machine.OccupancyProfiler

	peers   []string
	client  *http.Client
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

func httpError(rw http.ResponseWriter, code int, format string, args ...any) {
	http.Error(rw, fmt.Sprintf(format, args...), code)
}

func readJSON(rw http.ResponseWriter, req *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxControlBody+1))
	if err != nil {
		httpError(rw, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(body) > maxControlBody {
		httpError(rw, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxControlBody)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(rw, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	return true
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		// Too late for a status change; the coordinator sees the broken
		// body and fails the job.
		return
	}
}

func (w *Worker) handleInit(rw http.ResponseWriter, req *http.Request) {
	var in initReq
	if !readJSON(rw, req, &in) {
		return
	}
	if len(in.Spec) == 0 || in.Workers < 1 || in.Self < 0 || in.Self >= in.Workers ||
		len(in.Peers) != in.Workers || in.RunID == "" {
		httpError(rw, http.StatusBadRequest, "init: bad worker geometry (self %d of %d, %d peers)",
			in.Self, in.Workers, len(in.Peers))
		return
	}
	store, err := mc.ParseStore(in.Store)
	if err != nil {
		httpError(rw, http.StatusBadRequest, "init: %v", err)
		return
	}
	sys, err := buildSystem(in.Spec)
	if err != nil {
		httpError(rw, http.StatusBadRequest, "init: %v", err)
		return
	}
	r := &workerRun{
		id: in.RunID, self: in.Self, n: in.Workers,
		sys: sys, visited: mc.NewVisitedStore(store, 1),
		recvSeen:    make(map[int]map[uint64]bool),
		recvBatches: make(map[int][]*batch),
		rules:       make([]int64, len(sys.RuleNames())),
		wset:        health.NewWorkerSet(1),
		peers:       in.Peers,
		client:      &http.Client{Timeout: 30 * time.Second},
		pending:     make([]outbox, in.Workers),
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
			httpError(rw, http.StatusInternalServerError, "init: %v", err)
			return
		}
	}
	r.promote(0)
	w.mu.Lock()
	w.run = r
	w.mu.Unlock()
	writeJSON(rw, initResp{Stats: r.stats()})
}

// buildSystem rebuilds the executable system from an init request's
// config document (machine.Config's JSON form). Every worker building
// from the same document gets the same transition system,
// canonicalizer, and state encoding — the property the whole ownership
// scheme rests on.
func buildSystem(config []byte) (*machine.System, error) {
	var cfg machine.Config
	if err := json.Unmarshal(config, &cfg); err != nil {
		return nil, fmt.Errorf("dist: decode config: %w", err)
	}
	return machine.New(cfg)
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
	r.probes++
	_, fresh, conflated, err := r.visited.Insert(fp, key, int32(r.states))
	if err != nil {
		return err
	}
	if !fresh {
		r.dedupHits++
		if conflated {
			r.unverified++
		}
		r.sampler.Dup(fp)
		return nil
	}
	r.sampler.Store(fp)
	r.states++
	for depth >= len(r.depthHist) {
		r.depthHist = append(r.depthHist, 0)
	}
	r.depthHist[depth]++
	if depth > r.maxDepth {
		r.maxDepth = depth
	}
	r.frontier.add(s)
	if r.prof != nil {
		r.prof.Observe(s)
	}
	return nil
}

// promote makes the settled frontier the one at the given depth, empties
// the candidate arena and drops the received batches, whose bodies their
// entries alias. The depth write happens under candMu (in addition to
// the caller's ctrlMu) because the frontier handler reads it under
// candMu alone.
func (r *workerRun) promote(depth int) {
	r.cands.reset()
	r.expanded = false
	r.candMu.Lock()
	r.depth = depth
	r.recvSeen = make(map[int]map[uint64]bool)
	r.recvBatches = make(map[int][]*batch)
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

func (r *workerRun) stats() statsBlock {
	hr := new(health.Report)
	r.sampler.Fill(hr)
	hr.Workers = r.wset.Stats()
	hr.UnverifiedHits = r.unverified
	_, arena, setB := r.visited.Stats()
	hr.ArenaBytes = arena
	hr.SetBytes = setB
	hr.FrontierBytes = r.heldBytes()
	b := statsBlock{
		States:     r.states,
		Expansions: r.expansions,
		Generated:  r.generated,
		Probes:     r.probes,
		DedupHits:  r.dedupHits,
		MaxDepth:   r.maxDepth,
		DepthHist:  append([]int64(nil), r.depthHist...),
		Health:     hr,
		Frontier:   len(r.frontier.ends),
	}
	// Rule names are resolved here, where the block is reported: the wire
	// carries firings by name.
	names := r.sys.RuleNames()
	for id, n := range r.rules {
		if n != 0 {
			if b.Rules == nil {
				b.Rules = make(map[string]int64)
			}
			b.Rules[names[id]] += n
		}
	}
	if r.prof != nil {
		b.Occupancy = r.prof.Stats()
	}
	return b
}

func (w *Worker) runFor(rw http.ResponseWriter, runID string) *workerRun {
	r := w.current()
	if r == nil || r.id != runID {
		httpError(rw, http.StatusConflict, "no active run %q", runID)
		return nil
	}
	return r
}

func (w *Worker) handleExpand(rw http.ResponseWriter, req *http.Request) {
	var in expandReq
	if !readJSON(rw, req, &in) {
		return
	}
	r := w.runFor(rw, in.RunID)
	if r == nil {
		return
	}
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	if in.Depth != r.depth || r.expanded {
		httpError(rw, http.StatusConflict, "expand depth %d: worker at depth %d (expanded=%v)",
			in.Depth, r.depth, r.expanded)
		return
	}
	writeJSON(rw, r.expand())
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
// successor once the buffers are warm.
func (r *workerRun) expand() expandResp {
	resp := expandResp{Sent: make([]int, r.n)}
	visit := func(succ []byte, rule int) {
		r.rules[rule]++
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
	flushAll := func() error {
		for p := range r.pending {
			if err := r.flush(p); err != nil {
				return err
			}
		}
		return nil
	}
	lo := 0
	for _, hi := range r.frontier.ends {
		st := r.frontier.buf[lo:hi:hi]
		lo = hi
		if r.canceled.Load() {
			resp.SendFailed = "run canceled"
			return resp
		}
		sampled := r.expansions%expandSample == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		n, err := r.sys.Expand(st, visit)
		if sampled {
			r.wset.Worker(0).AddBatch(1, time.Since(t0), 0, 0)
		}
		r.expansions++
		if err != nil {
			resp.Terminal = &terminalReport{Kind: "violation", Message: err.Error(), State: st}
			r.expanded = true
			return resp
		}
		if n == 0 && !r.sys.Quiescent(st) {
			resp.Terminal = &terminalReport{
				Kind: "deadlock", Message: "no enabled rule in non-quiescent state", State: st,
			}
			r.expanded = true
			return resp
		}
		r.generated += int64(n)
		// Flushing between expansions keeps network I/O out of the visit;
		// a batch overshoots flushEntries by less than one state's fan-out.
		for p := range r.pending {
			if r.pending[p].n < flushEntries {
				continue
			}
			if err := r.flush(p); err != nil {
				resp.SendFailed = err.Error()
				r.expanded = true
				return resp
			}
		}
	}
	if err := flushAll(); err != nil {
		resp.SendFailed = err.Error()
	}
	r.expanded = true
	return resp
}

// flush ships the pending states for one peer as a frontier batch,
// retrying with backoff. Sends to one peer are strictly sequential
// (the next batch is not built until this one is acknowledged), so
// per-sender arrival order equals sequence order. The pending buffer is
// reused at once: encodeBatch framed a copy, which no later batch
// overwrites, because net/http may still read a request body after Do
// has returned an error.
func (r *workerRun) flush(peer int) error {
	o := &r.pending[peer]
	if o.n == 0 {
		return nil
	}
	data, err := encodeBatch(r.self, r.depth, r.seq, o.n, o.entries)
	r.seq++
	o.entries, o.n = o.entries[:0], 0
	if err != nil {
		return err
	}
	url := r.peers[peer] + "/dist/v1/frontier"
	t0 := time.Now()
	defer func() { r.wset.Worker(0).AddBatch(0, 0, 0, time.Since(t0)) }()
	var lastErr error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(sendBackoff << (attempt - 1))
			if r.canceled.Load() {
				break
			}
		}
		resp, err := r.client.Post(url, "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		// A 409 means the receiver is not in a state to accept this
		// batch (canceled or desynchronized) — retrying cannot help.
		if resp.StatusCode == http.StatusConflict {
			break
		}
	}
	return fmt.Errorf("dist: frontier send to worker %d failed after %d attempts: %w",
		peer, sendRetries+1, lastErr)
}

// readBatch reads a frontier body into one buffer: exactly the declared
// length when there is one (refused before a byte is read if it is over
// the cap), else a limited read that decodeBatch refuses if it is.
func readBatch(req *http.Request) ([]byte, error) {
	n := req.ContentLength
	if n > MaxBatchBytes {
		return nil, &LimitError{Section: "batch bytes", Count: clampInt(uint64(n)), Max: MaxBatchBytes}
	}
	var data []byte
	var err error
	if n >= 0 {
		data = make([]byte, n)
		_, err = io.ReadFull(req.Body, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(req.Body, MaxBatchBytes+1))
	}
	if err != nil {
		return nil, fmt.Errorf("read batch: %w", err)
	}
	return data, nil
}

func (w *Worker) handleFrontier(rw http.ResponseWriter, req *http.Request) {
	data, err := readBatch(req)
	var b *batch
	if err == nil {
		b, err = decodeBatch(data)
	}
	if err != nil {
		code := http.StatusBadRequest
		var le *LimitError
		if errors.As(err, &le) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(rw, code, "frontier: %v", err)
		return
	}
	r := w.current()
	if r == nil {
		httpError(rw, http.StatusConflict, "frontier: no active run")
		return
	}
	if r.canceled.Load() {
		httpError(rw, http.StatusConflict, "frontier: run canceled")
		return
	}
	if b.From < 0 || b.From >= r.n || b.From == r.self {
		httpError(rw, http.StatusBadRequest, "frontier: bad sender %d", b.From)
		return
	}
	r.candMu.Lock()
	defer r.candMu.Unlock()
	if b.Depth != r.depth {
		httpError(rw, http.StatusConflict, "frontier: batch for depth %d, worker at depth %d", b.Depth, r.depth)
		return
	}
	seen := r.recvSeen[b.From]
	if seen == nil {
		seen = make(map[uint64]bool)
		r.recvSeen[b.From] = seen
	}
	if seen[b.Seq] {
		// Redelivery after a lost acknowledgement: already applied.
		rw.WriteHeader(http.StatusOK)
		return
	}
	seen[b.Seq] = true
	r.recvBatches[b.From] = append(r.recvBatches[b.From], b)
	r.recvEntries += len(b.States)
	rw.WriteHeader(http.StatusOK)
}

func (w *Worker) handleSettle(rw http.ResponseWriter, req *http.Request) {
	var in settleReq
	if !readJSON(rw, req, &in) {
		return
	}
	r := w.runFor(rw, in.RunID)
	if r == nil {
		return
	}
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	if in.Depth != r.depth || !r.expanded {
		httpError(rw, http.StatusConflict, "settle depth %d: worker at depth %d (expanded=%v)",
			in.Depth, r.depth, r.expanded)
		return
	}
	r.candMu.Lock()
	got := r.recvEntries
	batches := r.recvBatches
	r.candMu.Unlock()
	if got != in.Expect {
		httpError(rw, http.StatusConflict,
			"settle depth %d: received %d frontier entries, peers reported sending %d",
			in.Depth, got, in.Expect)
		return
	}
	nextDepth := r.depth + 1
	if err := r.settle(batches, nextDepth); err != nil {
		httpError(rw, http.StatusInsufficientStorage, "settle: %v", err)
		return
	}
	r.promote(nextDepth)
	writeJSON(rw, settleResp{Stats: r.stats(), Frontier: len(r.frontier.ends)})
}

// settle stores the level's fresh candidates as the frontier at depth,
// in a fixed order: local candidates in generation order, then received
// batches by (sender asc, sequence asc). The order is load-bearing:
// under symmetry reduction it decides which orbit representative is
// stored, and with it the state counts (package comment, "Parity";
// TestDistStoredCounts). Every state in the frontier has been expanded,
// so the next level is built in its place. Local candidates come with
// their key and fingerprint; a received state's are recomputed here, so
// the wire is never trusted about identity or ownership.
func (r *workerRun) settle(batches map[int][]*batch, depth int) error {
	r.frontier.reset()
	for _, sp := range r.cands.spans {
		raw, key := r.cands.at(sp)
		if err := r.store(raw, key, sp.fp, depth); err != nil {
			return err
		}
	}
	for from := 0; from < r.n; from++ {
		bs := batches[from]
		sort.Slice(bs, func(i, j int) bool { return bs[i].Seq < bs[j].Seq })
		for _, b := range bs {
			for _, s := range b.States {
				key := r.canonical(s)
				if err := r.store(s, key, mc.Fingerprint(key), depth); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *Worker) handleCancel(rw http.ResponseWriter, req *http.Request) {
	var in cancelReq
	if !readJSON(rw, req, &in) {
		return
	}
	w.mu.Lock()
	r := w.run
	if r != nil && (in.RunID == "" || r.id == in.RunID) {
		// Flag first so an in-flight expand aborts between states, then
		// drop the run. Never takes ctrlMu: cancel must land while an
		// expand (possibly stuck retrying sends to a lost peer) holds it.
		r.canceled.Store(true)
		w.run = nil
	}
	w.mu.Unlock()
	rw.WriteHeader(http.StatusOK)
}
