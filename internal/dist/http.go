package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The HTTP transport, the one place the worker API meets the network:
// POST /dist/v1/{init,expand,settle,cancel} with JSON bodies, served by
// Handler and called by httpMember, and POST /dist/v1/frontier with one
// encoded batch (codec.go), made by httpPeer. A callError's kind
// travels as the status code.

// maxControlBody caps JSON control-request bodies (the model spec
// dominates; real specs are a few KiB).
const maxControlBody = 8 << 20

// A failed frontier POST is retried with doubling backoff (sequence
// numbers make redelivery idempotent); only after the last retry fails
// does the worker report the send failure, which fails the whole job.
const (
	sendRetries = 4
	sendBackoff = 25 * time.Millisecond
)

// kindStatus spells each callError kind as a status code.
var kindStatus = [...]int{
	badCall:  http.StatusBadRequest,
	conflict: http.StatusConflict,
	capacity: http.StatusInsufficientStorage,
}

// controlClient carries coordinators' control calls, frontierClient
// workers' frontier POSTs. The frontier connections buffer frameWrite
// bytes of what they send, so that a frame up to about that size goes
// out of the connection's own buffer: through the default 4 KiB one,
// net/http copies the rest of a body through a copy buffer it allocates
// for the request.
var (
	controlClient  = &http.Client{}
	frontierClient = &http.Client{Timeout: 30 * time.Second, Transport: writeBuffered(frameWrite)}
)

// frameWrite covers a batch of flushEntries entries of up to 120 bytes.
const frameWrite = 64 << 10

// writeBuffered is the default transport with n-byte write buffers.
func writeBuffered(n int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.WriteBufferSize = n
	return t
}

// dialFleet returns the members for worker daemons at base URLs.
func dialFleet(urls []string) []member {
	members := make([]member, len(urls))
	for i, u := range urls {
		members[i] = httpMember(u)
	}
	return members
}

// dialHTTP is the peer for the worker at a base URL.
func dialHTTP(url string) peer { return httpPeer(url + "/dist/v1/frontier") }

// httpMember is a worker daemon, by base URL, driven over HTTP.
type httpMember string

func (m httpMember) init(ctx context.Context, in initReq) (report, error) {
	return post[report](ctx, m, "init", in)
}

func (m httpMember) expand(ctx context.Context, in expandReq) (expandResp, error) {
	return post[expandResp](ctx, m, "expand", in)
}

func (m httpMember) settle(ctx context.Context, in settleReq) (report, error) {
	return post[report](ctx, m, "settle", in)
}

func (m httpMember) cancel(ctx context.Context, in cancelReq) error {
	_, err := post[struct{}](ctx, m, "cancel", in)
	return err
}

// post makes one control call and decodes its answer (none for
// struct{}); a refusal comes back as the callError the worker returned.
func post[Out any](ctx context.Context, m httpMember, op string, in any) (Out, error) {
	var out Out
	body, err := json.Marshal(in)
	if err == nil {
		body, err = postBody(ctx, controlClient, string(m)+"/dist/v1/"+op, "application/json", body)
	}
	if _, none := any(&out).(*struct{}); err == nil && !none {
		err = json.Unmarshal(body, &out)
	}
	return out, err
}

// postBody POSTs body to url and returns the answer's body; an answer
// other than 200 is an error, a callError when its status spells a kind.
func postBody(ctx context.Context, client *http.Client, url, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && resp.ContentLength == 0 {
		return nil, nil // an acknowledgement: nothing to read
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
	if err != nil || resp.StatusCode == http.StatusOK {
		return data, err
	}
	msg := string(bytes.TrimSpace(data))
	for kind, code := range kindStatus {
		if code == resp.StatusCode {
			return nil, &callError{errKind(kind), errors.New(msg)}
		}
	}
	return nil, fmt.Errorf("%s: %s", resp.Status, msg)
}

// Handler returns the worker's HTTP API. It delivers to the peers init
// names over HTTP too.
func (w *Worker) Handler() http.Handler { return w.handler(dialHTTP) }

// handler serves the API with dial making a peer of each URL in init.
func (w *Worker) handler(dial func(url string) peer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /dist/v1/init", route(func(ctx context.Context, in initReq) (report, error) {
		in.peers = make([]peer, len(in.Peers))
		for i, u := range in.Peers {
			in.peers[i] = dial(u)
		}
		return w.init(ctx, in)
	}))
	mux.Handle("POST /dist/v1/expand", route(w.expand))
	mux.Handle("POST /dist/v1/settle", route(w.settle))
	mux.Handle("POST /dist/v1/cancel", route(func(ctx context.Context, in cancelReq) (struct{}, error) {
		return struct{}{}, w.cancel(ctx, in)
	}))
	mux.HandleFunc("POST /dist/v1/frontier", func(rw http.ResponseWriter, req *http.Request) {
		data, err := w.readBatch(req)
		kept := false
		if err == nil {
			kept, err = w.receive(data)
		}
		if data != nil && !kept {
			w.bufs.put(data)
		}
		if err != nil {
			writeError(rw, err)
		}
	})
	return mux
}

// route serves one control call: a JSON body in, and the JSON answer
// (none for struct{}) or the error's status and text out.
func route[In, Out any](call func(context.Context, In) (Out, error)) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(io.LimitReader(req.Body, maxControlBody+1))
		if err != nil {
			writeError(rw, refuse(badCall, "read body: %v", err))
			return
		}
		if len(body) > maxControlBody {
			http.Error(rw, fmt.Sprintf("body exceeds %d bytes", maxControlBody), http.StatusRequestEntityTooLarge)
			return
		}
		var in In
		if err := json.Unmarshal(body, &in); err != nil {
			writeError(rw, refuse(badCall, "decode request: %v", err))
			return
		}
		out, err := call(req.Context(), in)
		if err != nil {
			writeError(rw, err)
			return
		}
		if answer := any(out); answer != any(struct{}{}) {
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(answer) // a broken body fails the job at the coordinator
		}
	}
}

// writeError answers err with its kind's status (413 for a batch over
// a cap, 500 for anything untyped).
func writeError(rw http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var le *LimitError
	var ce *callError
	if errors.As(err, &le) {
		code = http.StatusRequestEntityTooLarge
	} else if errors.As(err, &ce) {
		code = kindStatus[ce.kind]
	}
	http.Error(rw, err.Error(), code)
}

// readBatch reads a frontier body into one buffer: exactly the declared
// length, into a free buffer of the worker's, when there is one (refused
// before a byte is read if it is over the cap), else a limited read that
// decodeBatch refuses if it is.
func (w *Worker) readBatch(req *http.Request) ([]byte, error) {
	n := req.ContentLength
	if n > MaxBatchBytes {
		return nil, &LimitError{Section: "batch bytes", Count: clampInt(uint64(n)), Max: MaxBatchBytes}
	}
	var data []byte
	var err error
	if n >= 0 {
		data = w.bufs.get(int(n))[:n]
		_, err = io.ReadFull(req.Body, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(req.Body, MaxBatchBytes+1))
	}
	if err != nil {
		return nil, refuse(badCall, "frontier: read batch: %w", err)
	}
	return data, nil
}

// httpPeer delivers frontier batches to a worker's frontier route URL,
// retrying a failed POST with doubling backoff. A 409 is not retried:
// the receiver is canceled or at another depth.
type httpPeer string

// keeps is false: the receiver reads its own copy off the wire, and
// answers only once it has read all of it.
func (httpPeer) keeps() bool { return false }

func (p httpPeer) deliver(ctx context.Context, data []byte) error {
	var err error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(sendBackoff << (attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		_, err = postBody(ctx, frontierClient, string(p), "application/octet-stream", data)
		var ce *callError
		if err == nil || errors.As(err, &ce) && ce.kind == conflict {
			return err
		}
	}
	return fmt.Errorf("failed after %d attempts: %w", sendRetries+1, err)
}
