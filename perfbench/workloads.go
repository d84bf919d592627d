package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"drampower"
	"drampower/internal/server"
)

// workload names one traffic mix: how its inputs are generated and how
// each request reaches the program.
type workload struct {
	name string
	gen  func(seed uint64, sz sizes) (*inputs, error)
	// path and ctype address the server endpoint that serves the bodies:
	// the workload's own requests when direct is nil, and the handler
	// probes on every workload.
	path, ctype string
	// direct, when set, is the facade call a request makes in process.
	direct func(d *directInstance, body []byte, tr *tracer, parent, req int64) error
}

var workloads = []workload{
	{name: "evaluate-mix", gen: genEvaluate, path: "/v1/evaluate", ctype: "text/plain"},
	{
		name: "trace-replay", gen: genTraceReplay, direct: replayRequest,
		path: fmt.Sprintf("/v1/trace?channels=%d", channels), ctype: server.TraceBinaryContentType,
	},
	{name: "schedule-replay", gen: genScheduleReplay, path: scheduleQuery, ctype: server.AccessBinaryContentType},
}

// start is the program's set-up: a server and its listener, or the
// facade's model build.
func (w *workload) start() (instance, error) {
	if w.direct != nil {
		return startDirect(w.direct)
	}
	h, err := startHTTP(w.path, w.ctype)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instance is a set-up program that serves one request at a time.
type instance interface {
	// do sends one body and returns the response, valid until the next
	// call. With a tracer it records spans under parent.
	do(body []byte, tr *tracer, parent, req int64) ([]byte, error)
	close() error
}

// check compares a response with the reference for body b.
func (in *inputs) check(b int, resp []byte) bool {
	return bytes.Equal(resp, in.want[b])
}

// httpInstance is a server on a loopback listener with one keep-alive
// client. Its handler records a server.handler span when a tracer is
// attached.
type httpInstance struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	ctype  string
	buf    bytes.Buffer

	tr     atomic.Pointer[tracer]
	parent atomic.Int64 // span the handler span hangs under
	req    atomic.Int64
}

func startHTTP(path, ctype string) (*httpInstance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpInstance{
		srv:    server.New(server.Options{}),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{}},
		url:    "http://" + ln.Addr().String() + path,
		ctype:  ctype,
	}
	inner := h.srv.Handler()
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tr.Load()
		id := tr.begin("server.handler", h.parent.Load(), h.req.Load())
		inner.ServeHTTP(w, r)
		tr.end(id)
	})}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

func (h *httpInstance) do(body []byte, tr *tracer, parent, req int64) ([]byte, error) {
	id := tr.begin("client.post", parent, req)
	defer tr.end(id)
	h.tr.Store(tr)
	h.parent.Store(id)
	h.req.Store(req)
	resp, err := h.client.Post(h.url, h.ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(h.buf.Bytes()))
	}
	return h.buf.Bytes(), nil
}

// close shuts the HTTP server down, waits for it to stop serving and
// releases the server's worker pool.
func (h *httpInstance) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.srv.Close()
	return err
}

// directInstance calls the facade in process, as the CLIs do.
type directInstance struct {
	m   *drampower.Model
	key string
	buf bytes.Buffer
	req func(d *directInstance, body []byte, tr *tracer, parent, req int64) error
}

func startDirect(req func(*directInstance, []byte, *tracer, int64, int64) error) (instance, error) {
	m, err := drampower.Build(drampower.Sample1GbDDR3())
	if err != nil {
		return nil, err
	}
	return &directInstance{m: m, key: drampower.ModelKey(m.D), req: req}, nil
}

func (d *directInstance) do(body []byte, tr *tracer, parent, req int64) ([]byte, error) {
	d.buf.Reset()
	if err := d.req(d, body, tr, parent, req); err != nil {
		return nil, err
	}
	return d.buf.Bytes(), nil
}

func (d *directInstance) close() error { return nil }

// replayRequest is dramtrace's path: stream the trace through the
// replayer, then encode the result as JSON.
func replayRequest(d *directInstance, body []byte, tr *tracer, parent, req int64) error {
	id := tr.begin("facade.ReplayTrace", parent, req)
	res, err := drampower.ReplayTrace(d.m, bytes.NewReader(body), drampower.ReplayOptions{Channels: channels})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("facade.encodeJSON", parent, req)
	defer tr.end(id)
	return encodeTo(&d.buf, server.TraceResponseFor(res, d.key, channels))
}

func encodeTo(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }
