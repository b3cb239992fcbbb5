package dist

// The worker API at its seam: both transports driven through the same
// two interfaces, with test doubles standing in for peers — a gate that
// holds one delivery, and a seeded lossy network that drops, duplicates,
// delays and reorders deliveries and loses control calls.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

var transports = []string{"in-process", "http"}

// peerFunc adapts a function to peer.
type peerFunc func(ctx context.Context, data []byte) error

func (f peerFunc) deliver(ctx context.Context, data []byte) error { return f(ctx, data) }

// keeps is true: a test double may hold a batch past its acknowledgement.
func (peerFunc) keeps() bool { return true }

// linked is a member whose init hands the worker its own peers, so each
// worker's links can be wrapped apart.
type linked struct {
	member
	peers []peer
}

func (l linked) init(ctx context.Context, in initReq) (report, error) {
	in.peers = l.peers
	return l.member.init(ctx, in)
}

// fleet starts n workers on the named transport, worker i delivering to
// worker j through wrap(i, j, p). It returns the workers, the members a
// coordinator drives, and the URLs check's Job names (nil in process).
func fleet(t *testing.T, transport string, n int, wrap func(from, to int, p peer) peer) ([]*Worker, []member, []string) {
	t.Helper()
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = NewWorker()
	}
	if transport == "in-process" {
		members := make([]member, n)
		for i, w := range ws {
			peers := make([]peer, n)
			for j := range peers {
				peers[j] = wrap(i, j, ws[j])
			}
			members[i] = linked{w, peers}
		}
		return ws, members, nil
	}
	urls := make([]string, n)
	for i, w := range ws {
		srv := httptest.NewServer(w.handler(func(u string) peer {
			return wrap(i, slices.Index(urls, u), dialHTTP(u))
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return ws, dialFleet(urls), urls
}

func minimal(t *testing.T, proto string, caches int) machine.Config {
	t.Helper()
	p := protocols.MustLoad(proto)
	a := vnassign.Assign(p)
	return machine.Config{Protocol: p, Caches: caches, Dirs: 1, Addrs: 1, VN: a.VN, NumVNs: a.NumVNs}
}

// gate holds the first delivery hold picks until open, and counts the
// deliveries that follow it.
type gate struct {
	hold    func(*batch) bool
	entered chan struct{} // closed once a delivery is held
	release chan struct{}
	once    sync.Once

	mu      sync.Mutex
	blocked bool
	after   int
}

func newGate(hold func(*batch) bool) *gate {
	return &gate{hold: hold, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// on returns p behind the gate.
func (g *gate) on(p peer) peer {
	return peerFunc(func(ctx context.Context, data []byte) error {
		b, err := decodeBatch(data, nil)
		g.mu.Lock()
		first := !g.blocked && err == nil && g.hold(&b)
		if first {
			g.blocked = true
		} else if g.blocked {
			g.after++
		}
		g.mu.Unlock()
		if first {
			close(g.entered)
			<-g.release
		}
		return p.deliver(ctx, data)
	})
}

// gateWorker1 puts every delivery to worker 1 behind g.
func gateWorker1(g *gate) func(from, to int, p peer) peer {
	return func(_, to int, p peer) peer {
		if to == 1 {
			return g.on(p)
		}
		return p
	}
}

// TestDistCancelMidDelivery: a canceled ctx ends the run at once, even
// while a worker is blocked in a frontier delivery that only the test
// can release. In process no socket aborts the call, so the coordinator
// must stop waiting for it; Check returns Canceled with a nil error
// before the delivery is let go.
func TestDistCancelMidDelivery(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			g := newGate(func(*batch) bool { return true })
			_, members, urls := fleet(t, transport, 2, gateWorker1(g))
			t.Cleanup(g.open) // before the servers close: they wait for the held call
			job := Job{Config: minimal(t, "MSI_nonblocking_cache", 2), Options: mc.Options{DisableTraces: true}, Peers: urls}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type answer struct {
				res mc.Result
				err error
			}
			done := make(chan answer, 1)
			go func() {
				res, err := check(ctx, job, members, nil)
				done <- answer{res, err}
			}()
			<-g.entered
			cancel()
			got := <-done
			if got.err != nil || got.res.Outcome != mc.Canceled {
				t.Fatalf("outcome %v, err %v; want Canceled and no error", got.res.Outcome, got.err)
			}
		})
	}
}

// TestInitStopsReplacedRun: a worker daemon serves one run at a time,
// and a new init replaces the old run — which must then stop, not go on
// expanding its level and shipping batches into the peers' new runs.
// Run A's expand is held in a full (mid-level) batch to worker 1; run B
// is initialized on worker 0; once the delivery is let go, A must
// deliver nothing more.
func TestInitStopsReplacedRun(t *testing.T) {
	g := newGate(func(b *batch) bool { return len(b.States) >= flushEntries })
	ws, members, _ := fleet(t, "in-process", 2, gateWorker1(g))
	cfg := minimal(t, "CXL_cache", 3)
	done := make(chan error, 1)
	go func() {
		_, err := check(context.Background(), Job{Config: cfg, Options: mc.Options{DisableTraces: true}}, members, nil)
		done <- err
	}()
	<-g.entered
	spec, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws[0].init(context.Background(), initReq{RunID: "B", Workers: 1, Spec: spec, Store: "exact", peers: []peer{nil}}); err != nil {
		t.Fatal(err)
	}
	g.open()
	if err := <-done; err == nil {
		t.Error("run A completed though worker 0 was taken over")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.after != 0 {
		t.Errorf("the replaced run made %d more deliveries", g.after)
	}
	if r := ws[0].run.Load(); r == nil || r.id != "B" {
		t.Error("worker 0 does not serve run B")
	}
}

// dying is a member that is lost at its expand at depth at: from then
// on its calls fail, and so does every delivery to it (dead).
type dying struct {
	member
	at   int
	dead *atomic.Bool
}

func (d dying) expand(ctx context.Context, in expandReq) (expandResp, error) {
	if in.Depth >= d.at {
		d.dead.Store(true)
	}
	if d.dead.Load() {
		return expandResp{}, errLost
	}
	return d.member.expand(ctx, in)
}

// TestDistSendersExit pins that no frontier sender outlives its run,
// however the run ends: complete, canceled mid-delivery, with a worker
// lost mid-run, or replaced by a new init. Each run is made in a subtest
// of its own, whose cleanup closes the fleet's servers; the clients' idle
// connections, which outlive a run by design, are dropped before the
// count.
func TestDistSendersExit(t *testing.T) {
	cfg := minimal(t, "MSI_nonblocking_cache", 2)
	ends := []struct {
		name string
		run  func(t *testing.T, transport string) error
	}{
		{"complete", func(t *testing.T, transport string) error {
			_, members, urls := fleet(t, transport, 2, func(_, _ int, p peer) peer { return p })
			res, err := check(context.Background(), Job{Config: cfg, Options: mc.Options{DisableTraces: true}, Peers: urls}, members, nil)
			if err == nil && res.Outcome != mc.Complete {
				err = fmt.Errorf("outcome %v", res.Outcome)
			}
			return err
		}},
		{"canceled", func(t *testing.T, transport string) error {
			g := newGate(func(*batch) bool { return true })
			_, members, urls := fleet(t, transport, 2, gateWorker1(g))
			t.Cleanup(g.open)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				res, err := check(ctx, Job{Config: cfg, Options: mc.Options{DisableTraces: true}, Peers: urls}, members, nil)
				if err == nil && res.Outcome != mc.Canceled {
					err = fmt.Errorf("outcome %v", res.Outcome)
				}
				done <- err
			}()
			<-g.entered
			cancel()
			err := <-done
			g.open()
			return err
		}},
		{"lost", func(t *testing.T, transport string) error {
			var dead atomic.Bool
			_, members, urls := fleet(t, transport, 2, func(_, to int, p peer) peer {
				if to != 1 {
					return p
				}
				return peerFunc(func(ctx context.Context, data []byte) error {
					if dead.Load() {
						return errLost
					}
					return p.deliver(ctx, data)
				})
			})
			members[1] = dying{members[1], 4, &dead}
			_, err := check(context.Background(), Job{Config: cfg, Options: mc.Options{DisableTraces: true}, Peers: urls}, members, nil)
			var lost *WorkerLostError
			if !errors.As(err, &lost) {
				return fmt.Errorf("ended with %v, want a lost worker", err)
			}
			return nil
		}},
		{"replaced", func(t *testing.T, transport string) error {
			g := newGate(func(*batch) bool { return true })
			ws, members, urls := fleet(t, transport, 2, gateWorker1(g))
			t.Cleanup(g.open)
			done := make(chan error, 1)
			go func() {
				_, err := check(context.Background(), Job{Config: cfg, Options: mc.Options{DisableTraces: true}, Peers: urls}, members, nil)
				done <- err
			}()
			<-g.entered
			spec, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ws[0].init(context.Background(), initReq{RunID: "B", Workers: 1, Spec: spec, Store: "exact", peers: []peer{nil}}); err != nil {
				t.Fatal(err)
			}
			g.open()
			if err := <-done; err == nil {
				return errors.New("the replaced run completed")
			}
			return nil
		}},
	}
	for _, transport := range transports {
		for _, end := range ends {
			t.Run(transport+"/"+end.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				t.Run("run", func(t *testing.T) {
					if err := end.run(t, transport); err != nil {
						t.Fatal(err)
					}
				})
				controlClient.CloseIdleConnections()
				frontierClient.CloseIdleConnections()
				for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
					}
				}
			})
		}
	}
}

// refusing is a member that refuses op with err, as a worker at a
// capacity limit refuses it.
type refusing struct {
	member
	op  string
	err error
}

func (r refusing) expand(ctx context.Context, in expandReq) (expandResp, error) {
	if r.op == "expand" {
		return expandResp{}, r.err
	}
	return r.member.expand(ctx, in)
}

func (r refusing) settle(ctx context.Context, in settleReq) (report, error) {
	if r.op == "settle" {
		return report{}, r.err
	}
	return r.member.settle(ctx, in)
}

// TestDistCapacity: a worker that refuses expand for capacity (its held
// bytes at the memory limit) or settle (its visited set full) ends the
// run as Capacity, with no error, the refusal's text as the message and
// the fleet canceled. Over HTTP the refusal is the worker's answer, so
// it crosses the wire as its status code.
func TestDistCapacity(t *testing.T) {
	for _, transport := range transports {
		for _, op := range []string{"expand", "settle"} {
			t.Run(transport+"/"+op, func(t *testing.T) {
				refusal := refuse(capacity, "%s: %w", op, &mc.CapacityError{Limit: "memory", Max: 1 << 20})
				ws := []*Worker{NewWorker(), NewWorker()}
				var members []member
				var peers []peer
				var urls []string
				if transport == "in-process" {
					members, peers = []member{ws[0], refusing{ws[1], op, refusal}}, []peer{ws[0], ws[1]}
				} else {
					for i, w := range ws {
						h := w.Handler()
						if inner := h; i == 1 {
							h = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
								if req.URL.Path == "/dist/v1/"+op {
									writeError(rw, refusal)
									return
								}
								inner.ServeHTTP(rw, req)
							})
						}
						srv := httptest.NewServer(h)
						t.Cleanup(srv.Close)
						urls = append(urls, srv.URL)
					}
					members = dialFleet(urls)
				}
				job := Job{Config: minimal(t, "MSI_nonblocking_cache", 2), Options: mc.Options{DisableTraces: true}, Peers: urls}
				got, err := check(context.Background(), job, members, peers)
				if err != nil || got.Outcome != mc.Capacity || got.Message != refusal.Error() {
					t.Fatalf("%v %q, err %v; want Capacity %q and no error", got.Outcome, got.Message, err, refusal.Error())
				}
				for i, w := range ws {
					if w.run.Load() != nil {
						t.Errorf("worker %d still serves its run", i)
					}
				}
			})
		}
	}
}

// errLost is what a lost message looks like to its sender.
var errLost = errors.New("lost in the network")

// lossy is a seeded unreliable network around a fleet. Every frontier
// delivery and control call gets a fate drawn from the seed and the
// message's place in the run — its link and ordinal, or its worker,
// call and depth — never from scheduling, so a seed replays its faults.
type lossy struct {
	seed int

	mu    sync.Mutex
	sent  map[[2]int]int // deliveries so far per (from, to) link
	held  map[int][]func(context.Context)
	fates map[string]int // fates applied in this run
}

func newLossy(seed int) *lossy {
	return &lossy{seed: seed, sent: map[[2]int]int{}, held: map[int][]func(context.Context){}, fates: map[string]int{}}
}

// fate is a number in [0, 1000) fixed by the seed and key.
func (l *lossy) fate(key ...any) int {
	h := fnv.New64a()
	fmt.Fprint(h, l.seed, key)
	return int(h.Sum64() % 1000)
}

func (l *lossy) note(fate string) {
	l.mu.Lock()
	l.fates[fate]++
	l.mu.Unlock()
}

// lost reports whether a fate that may fail the run was applied.
func (l *lossy) lost() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fates["drop"]+l.fates["lost ack"]+l.fates["silent drop"]+l.fates["call lost"]+l.fates["answer lost"] > 0
}

// flushHeld makes the deliveries from sender that were acknowledged and
// held back for reordering.
func (l *lossy) flushHeld(ctx context.Context, sender int) {
	l.mu.Lock()
	held := l.held[sender]
	delete(l.held, sender)
	l.mu.Unlock()
	for _, deliver := range held {
		deliver(ctx)
	}
}

// link wraps the delivery from worker from to worker to.
func (l *lossy) link(from, to int, p peer) peer {
	return peerFunc(func(ctx context.Context, data []byte) error {
		l.mu.Lock()
		k := l.sent[[2]int{from, to}]
		l.sent[[2]int{from, to}]++
		l.mu.Unlock()
		switch f := l.fate("deliver", from, to, k); {
		case f < 3:
			l.note("drop")
			return errLost
		case f < 6:
			l.note("lost ack")
			p.deliver(ctx, data)
			return errLost
		case f < 9:
			l.note("silent drop")
			return nil
		case f < 150:
			l.note("duplicate")
			if err := p.deliver(ctx, data); err != nil {
				return err
			}
		case f < 300:
			// Acknowledged now, delivered after the sender's next batch
			// or when its expand ends, whichever comes first.
			l.note("reorder")
			l.mu.Lock()
			l.held[from] = append(l.held[from], func(ctx context.Context) { p.deliver(ctx, data) })
			l.mu.Unlock()
			return nil
		case f < 450:
			l.note("delay")
			time.Sleep(time.Duration(f) * time.Microsecond)
		}
		err := p.deliver(ctx, data)
		l.flushHeld(ctx, from)
		return err
	})
}

// lossyMember is worker i's control calls through the network.
type lossyMember struct {
	member
	l *lossy
	i int
}

// call loses the request or the answer when the fate says so.
func call[In, Out any](ctx context.Context, l *lossy, i int, op string, depth int, f func(context.Context, In) (Out, error), in In) (Out, error) {
	fate := l.fate(op, i, depth)
	if fate < 3 {
		l.note("call lost")
		var zero Out
		return zero, errLost
	}
	out, err := f(ctx, in)
	if fate < 6 && err == nil {
		l.note("answer lost")
		return out, errLost
	}
	return out, err
}

func (m lossyMember) init(ctx context.Context, in initReq) (report, error) {
	return call(ctx, m.l, m.i, "init", -1, m.member.init, in)
}

func (m lossyMember) expand(ctx context.Context, in expandReq) (expandResp, error) {
	out, err := call(ctx, m.l, m.i, "expand", in.Depth, m.member.expand, in)
	m.l.flushHeld(ctx, m.i)
	return out, err
}

func (m lossyMember) settle(ctx context.Context, in settleReq) (report, error) {
	return call(ctx, m.l, m.i, "settle", in.Depth, m.member.settle, in)
}

// TestDistFaults runs parity rows through a seeded lossy network on both
// transports. Every schedule must end in the fault-free result (same
// outcome, states, depth, expansions and rule firings) or in a
// *WorkerLostError — never a hang, never a wrong count — and a run that
// lost nothing (only duplicates, reorders and delays) must end in the
// fault-free result, which is what exercises the (sender, seq) dedup.
func TestDistFaults(t *testing.T) {
	nosym := minimal(t, "CXL_cache", 3)
	nosym.NoSymmetry = true
	rows := []struct {
		name    string
		cfg     machine.Config
		opts    mc.Options
		workers int
	}{
		{"MSI_nonblocking 2c depth 10", minimal(t, "MSI_nonblocking_cache", 2), mc.Options{MaxDepth: 10, DisableTraces: true}, 3},
		{"CXL 3c nosym depth 6", nosym, mc.Options{MaxDepth: 6, DisableTraces: true}, 2},
	}
	const seeds = 20
	fates := map[string]int{}
	outcomes := map[bool]int{}
	for _, row := range rows {
		want, err := Check(context.Background(), Job{Config: row.cfg, Options: row.opts, Workers: row.workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, transport := range transports {
			for seed := 1; seed <= seeds; seed++ {
				l := newLossy(seed)
				_, members, urls := fleet(t, transport, row.workers, l.link)
				for i, m := range members {
					members[i] = lossyMember{m, l, i}
				}
				got, err := check(context.Background(), Job{Config: row.cfg, Options: row.opts, Peers: urls}, members, nil)
				where := fmt.Sprintf("%s/%s/seed %d (%v)", row.name, transport, seed, l.fates)
				var lost *WorkerLostError
				switch {
				case err == nil:
					if got.Outcome != want.Outcome || got.States != want.States || got.MaxDepth != want.MaxDepth ||
						got.Rules != want.Rules || !reflect.DeepEqual(got.Stats.RuleFirings, want.Stats.RuleFirings) {
						t.Errorf("%s: %v %d states depth %d rules %d, want %v %d depth %d rules %d", where,
							got.Outcome, got.States, got.MaxDepth, got.Rules, want.Outcome, want.States, want.MaxDepth, want.Rules)
					}
				case !errors.As(err, &lost) || got.Outcome != mc.Canceled:
					t.Errorf("%s: %v outcome %v, want a *WorkerLostError and Canceled", where, err, got.Outcome)
				case !l.lost():
					t.Errorf("%s: nothing was lost, yet %v", where, err)
				}
				outcomes[err == nil]++
				for f, n := range l.fates {
					fates[f] += n
				}
			}
		}
	}
	t.Logf("fates %v; %d runs ended in the fault-free result, %d in a lost worker", fates, outcomes[true], outcomes[false])
	for _, f := range []string{"drop", "lost ack", "silent drop", "duplicate", "reorder", "delay", "call lost", "answer lost"} {
		if fates[f] == 0 {
			t.Errorf("no %s in %d schedules", f, 2*len(rows)*seeds)
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Errorf("outcomes %v: want both fault-free results and lost workers", outcomes)
	}
}

// TestHTTPInOneFile: the network is http.go's alone, so a fleet without
// Peers opens no socket and every other file is transport-free.
func TestHTTPInOneFile(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || f == "http.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path == "net" || strings.HasPrefix(path, "net/") {
				t.Errorf("%s imports %s; the transport lives in http.go", f, path)
			}
		}
	}
}
