package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/logp-model/logp/internal/obs"
	"github.com/logp-model/logp/internal/service"
)

// daemon is logpsimd hosted in-process: service.New with the daemon's
// default Config behind a real loopback listener, as -selftest does, with
// the default info-level request log written to a discarded writer.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{} // closed when Serve has returned
}

func startDaemon(clients int) (*daemon, error) {
	logger, err := obs.NewLogger(io.Discard, "info", "text")
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Logger: logger})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the server and waits until its accept loop has exited.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
	<-d.served
}

// reply is one response as the client saw it.
type reply struct {
	status  int
	header  http.Header
	body    []byte
	start   time.Time
	latency time.Duration // request start to the last body byte
}

func (d *daemon) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{start: time.Now()}
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r.body, err = io.ReadAll(resp.Body)
	r.latency = time.Since(r.start)
	if err != nil {
		return reply{}, fmt.Errorf("reading %s body: %w", path, err)
	}
	r.status, r.header = resp.StatusCode, resp.Header
	return r, nil
}

// drive runs ops closed-loop from the given number of clients: each client
// takes the next op index, waits for its reply and hands it to handle on
// its own goroutine before sending again. It returns when every op is done.
func (d *daemon) drive(ops []op, clients int, handle func(i int, r reply, err error)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				r, err := d.do(http.MethodPost, ops[i].path, ops[i].body)
				handle(i, r, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
