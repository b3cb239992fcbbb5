// Package client is the typed Go client for the vnserved HTTP API.
// It wraps the JSON endpoints in methods mirroring the serve package's
// request/response types and decodes the SSE progress stream. It is
// the substrate for the server and daemon integration tests.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"minvn/internal/serve"
)

// Client talks to one vnserved instance.
type Client struct {
	base string
	hc   *http.Client
	// RequestID, when non-empty, is sent as X-Request-ID on every
	// submit, tying the server's job log, SSE events, flight-recorder
	// export, and job views back to this client's operation.
	RequestID string
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8437"). httpClient may be nil for a default with
// no overall timeout (verify jobs can run for minutes; use request
// contexts to bound calls).
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter string // Retry-After header, set on 503
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Message)
}

// IsBusy reports whether err is the server's 503 backpressure signal.
func IsBusy(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusServiceUnavailable
}

func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.RequestID != "" {
		req.Header.Set("X-Request-ID", c.RequestID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &StatusError{Code: resp.StatusCode, Message: msg, RetryAfter: resp.Header.Get("Retry-After")}
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Analyze submits an analyze request and waits for its result.
func (c *Client) Analyze(ctx context.Context, req serve.AnalyzeRequest) (*serve.JobView, error) {
	var view serve.JobView
	if err := c.doJSON(ctx, http.MethodPost, "/v1/analyze?wait=1", req, &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// Verify submits a verify request. With wait true the call blocks
// until the job is terminal; otherwise the returned view is the
// admission snapshot (poll with Job or stream with Events).
func (c *Client) Verify(ctx context.Context, req serve.VerifyRequest, wait bool) (*serve.JobView, error) {
	path := "/v1/verify"
	if wait {
		path += "?wait=1"
	}
	var view serve.JobView
	if err := c.doJSON(ctx, http.MethodPost, path, req, &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// Job fetches a job by id.
func (c *Client) Job(ctx context.Context, id string) (*serve.JobView, error) {
	var view serve.JobView
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// WaitDone polls a job until it leaves the queue/run states.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (*serve.JobView, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		view, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch view.Status {
		case serve.StatusDone, serve.StatusFailed, serve.StatusCanceled:
			return view, nil
		}
		select {
		case <-ctx.Done():
			return view, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Events subscribes to a job's SSE stream and calls fn for every
// event, in order, from the beginning of the job's history. It
// returns nil once the terminal "done" event has been delivered.
func (c *Client) Events(ctx context.Context, id string, fn func(serve.Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				if event == "error" {
					return fmt.Errorf("serve: event stream: %s", data)
				}
				var e serve.Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					return fmt.Errorf("serve: bad event payload: %w", err)
				}
				fn(e)
				if e.Type == "done" {
					return nil
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*serve.Stats, error) {
	var st serve.Stats
	if err := c.doJSON(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Metrics fetches the raw /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return string(raw), nil
}
