package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sourcecurrents/internal/cluster"
	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
)

// Serving options, the defaults of `currents server` and `currents router`.
const (
	answerCacheSize = 1024
	retainEpochs    = 4
	compactEvery    = server.DefaultCompactEvery
	routerRF        = cluster.DefaultRF
)

func sessionConfig() session.Config {
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = retainEpochs
	return cfg
}

// shard is one in-process `currents server`: a registry behind server.New,
// listening on a loopback port.
type shard struct {
	reg  *server.Registry
	srv  *server.Server
	http *http.Server
	addr string
	// dir is the load and persist directory.
	dir         string
	compactions atomic.Int64
	served      chan error
}

// startShard serves reg on a fresh loopback port. The handler is wrapped
// for tracing only when tr is non-nil.
func startShard(reg *server.Registry, dir string, tr *tracer) (*shard, error) {
	sh := &shard{reg: reg, dir: dir, served: make(chan error, 1)}
	sh.srv = server.New(reg, server.Options{
		AnswerCacheSize: answerCacheSize,
		PersistDir:      dir,
		CompactEvery:    compactEvery,
		SessionCfg:      sessionConfig(),
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "compacted ") {
				sh.compactions.Add(1)
			}
		},
	})
	var h http.Handler = sh.srv
	if tr != nil {
		h = tr.wrapHandler(spanServe, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh.addr = ln.Addr().String()
	sh.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { sh.served <- sh.http.Serve(ln) }()
	return sh, nil
}

func (sh *shard) close() error {
	return shutdown(sh.http, sh.served)
}

// fleet is an in-process `currents router` over shards.
type fleet struct {
	rt     *cluster.Router
	http   *http.Server
	addr   string
	served chan error
}

func startRouter(addrs []string, tr *tracer) (*fleet, error) {
	opt := cluster.Options{RF: routerRF, Seed: 1}
	if tr != nil {
		// The same pooled transport the router builds for itself, wrapped
		// to time each shard attempt.
		opt.Client = &http.Client{Transport: &tracingTransport{t: tr, base: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
		}}}
	}
	rt, err := cluster.NewRouter(addrs, opt)
	if err != nil {
		return nil, err
	}
	rt.Start()
	var h http.Handler = rt
	if tr != nil {
		h = tr.wrapHandler(spanRoute, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	f := &fleet{rt: rt, addr: ln.Addr().String(), served: make(chan error, 1)}
	f.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { f.served <- f.http.Serve(ln) }()
	return f, nil
}

func (f *fleet) close() error {
	err := shutdown(f.http, f.served)
	f.rt.Close()
	return err
}

// shutdown drains an http.Server and waits for its Serve goroutine.
func shutdown(hs *http.Server, served chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(ctx)
	if serr := <-served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// client is the benchmark's load client: at most conns connections to the
// one address it talks to.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	return &client{
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
			},
		},
		base: "http://" + addr,
	}
}

// requestTimeout bounds one benchmark request; a request that exceeds it
// failed.
const requestTimeout = 30 * time.Second

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body to path and returns the status and response body.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads a Prometheus text page and sums each metric family over
// its label sets.
func (c *client) scrape() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// scrapeAll sums scrape over several servers.
func scrapeAll(addrs []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, a := range addrs {
		c := newClient(a, 1)
		m, err := c.scrape()
		c.close()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
