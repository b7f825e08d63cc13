package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"nearspan/internal/delta"
	"nearspan/internal/service"
	"nearspan/internal/store"
)

// daemon is one in-process spannerd: a store on a data dir, the service
// with its defaults (a private scheduler sized to GOMAXPROCS, so a drain
// releases every worker), and service.Run on a 127.0.0.1:0 listener.
type daemon struct {
	st   *store.Store
	srv  *service.Server
	addr string
	stop context.CancelFunc
	done chan error
}

func startDaemon(ctx context.Context, dir string, procs int) (*daemon, error) {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Options{Store: st, SchedWorkers: procs})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		st.Close()
		return nil, err
	}
	runCtx, stop := context.WithCancel(context.Background())
	d := &daemon{st: st, srv: srv, addr: l.Addr().String(), stop: stop, done: make(chan error, 1)}
	go func() { d.done <- service.Run(runCtx, srv, l) }()
	if err := srv.WaitReady(ctx); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close drains the server, shuts its listener and closes the store. It
// returns once service.Run has returned.
func (d *daemon) close() error {
	d.stop()
	err := <-d.done
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is the benchmark's single closed-loop client: one keep-alive
// connection, every response read to the end before the next request.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one HTTP exchange: status, body, and the time from sending
// the request to reading the last byte of the response.
type reply struct {
	status int
	body   []byte
	dur    time.Duration
}

func (r reply) ok() bool { return r.status >= 200 && r.status < 300 }

func (c *client) do(ctx context.Context, method, path, ctype string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	dur := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, dur: dur}, nil
}

func (c *client) submit(ctx context.Context, spec service.JobSpec) (reply, *service.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return reply{}, nil, err
	}
	r, err := c.do(ctx, http.MethodPost, "/v1/jobs?wait=1", "application/json", body)
	if err != nil || !r.ok() {
		return r, nil, err
	}
	var v service.JobView
	if err := json.Unmarshal(r.body, &v); err != nil {
		return r, nil, fmt.Errorf("decode job document: %w", err)
	}
	return r, &v, nil
}

// answer is one distance answer as the query endpoints return it.
type answer struct {
	U    int     `json:"u"`
	V    int     `json:"v"`
	Dist int32   `json:"dist"`
	Path []int32 `json:"path"`
}

func (c *client) query(ctx context.Context, job string, q pair) (reply, *answer, error) {
	path := "/v1/jobs/" + job + "/query?u=" + strconv.Itoa(q.u) + "&v=" + strconv.Itoa(q.v)
	if q.path {
		path += "&path=1"
	}
	r, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil || !r.ok() {
		return r, nil, err
	}
	var a answer
	if err := json.Unmarshal(r.body, &a); err != nil {
		return r, nil, fmt.Errorf("decode answer: %w", err)
	}
	return r, &a, nil
}

func (c *client) batch(ctx context.Context, job string, pairs [][2]int) (reply, []answer, error) {
	var body bytes.Buffer
	for _, p := range pairs {
		fmt.Fprintf(&body, "{\"u\":%d,\"v\":%d}\n", p[0], p[1])
	}
	r, err := c.do(ctx, http.MethodPost, "/v1/jobs/"+job+"/query", "application/x-ndjson", body.Bytes())
	if err != nil || !r.ok() {
		return r, nil, err
	}
	out := make([]answer, 0, len(pairs))
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		var a answer
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			return r, nil, fmt.Errorf("decode batch answer: %w", err)
		}
		out = append(out, a)
	}
	if len(out) != len(pairs) {
		return r, nil, fmt.Errorf("batch: %d answers for %d pairs", len(out), len(pairs))
	}
	return r, out, nil
}

func (c *client) patch(ctx context.Context, job string, b *delta.Batch) (reply, *service.JobView, error) {
	var body bytes.Buffer
	for _, e := range b.Delete {
		fmt.Fprintf(&body, "{\"op\":\"delete\",\"u\":%d,\"v\":%d}\n", e.U, e.V)
	}
	for _, e := range b.Insert {
		fmt.Fprintf(&body, "{\"op\":\"insert\",\"u\":%d,\"v\":%d}\n", e.U, e.V)
	}
	r, err := c.do(ctx, http.MethodPatch, "/v1/jobs/"+job+"/edges", "application/x-ndjson", body.Bytes())
	if err != nil || !r.ok() {
		return r, nil, err
	}
	var v service.JobView
	if err := json.Unmarshal(r.body, &v); err != nil {
		return r, nil, fmt.Errorf("decode job document: %w", err)
	}
	return r, &v, nil
}
