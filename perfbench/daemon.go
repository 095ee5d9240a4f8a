package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cfaopc/internal/server"
	"cfaopc/internal/wcache"
)

// daemon is cfaopcd hosted in this process: the job manager and its HTTP
// handler on a loopback listener, driven through the wire API only.
type daemon struct {
	m    *server.Manager
	srv  *http.Server
	done chan error // Serve's result
	base string
	dir  string
	hc   *http.Client
}

// startDaemon opens a manager on dataDir with cfaopcd's defaults (2 GiB
// admission budget, 500 ms governor pulse) and serves it on 127.0.0.1.
// It returns once /healthz answers.
func startDaemon(dataDir, layoutRoot string, maxActive int, cache *wcache.Cache) (*daemon, error) {
	m, err := server.NewManager(server.ManagerConfig{
		DataDir:      dataDir,
		LayoutRoot:   layoutRoot,
		MaxActive:    maxActive,
		MonitorEvery: 500 * time.Millisecond,
		Cache:        cache,
	})
	if err != nil {
		return nil, err
	}
	m.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Stop()
		return nil, err
	}
	d := &daemon{
		m:    m,
		srv:  &http.Server{Handler: server.NewHandler(m)},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		dir:  dataDir,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	resp, err := d.hc.Get(d.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon health check: %w", err)
	}
	return d, nil
}

// stop shuts the listener and the manager down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) // best effort: every stream has ended by now
	<-d.done
	d.m.Stop()
	d.hc.CloseIdleConnections()
}

// submit posts spec and returns the job ID. refused reports a 429 or
// 400 reply: the daemon turned the job away.
func (d *daemon) submit(spec *server.JobSpec) (id string, refused bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", false, err
	}
	resp, err := d.hc.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", true, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return "", false, err
	}
	return st.ID, false, nil
}

// arrival is one SSE event and when the client read it.
type arrival struct {
	ev server.JobEvent
	at time.Time
}

// maxReconnects bounds how often follow resumes one job's stream.
const maxReconnects = 5

// stream is one job's SSE stream as the client read it.
type stream struct {
	evs        []arrival
	dropped    int // events the daemon reported dropped
	reconnects int // resumptions with Last-Event-ID after an early end
}

// follow reads the job's SSE stream until its terminal state event,
// stamping every event with its arrival time. A stream that ends before
// the terminal event is resumed with Last-Event-ID, as the daemon's
// stream protocol tells clients to do; the replay continues exactly
// after the last seq read.
func (d *daemon) follow(id string) (*stream, error) {
	st := &stream{}
	for {
		done, err := d.readStream(id, st)
		if done || err != nil {
			return st, err
		}
		if st.reconnects == maxReconnects {
			return st, fmt.Errorf("events %s: stream ended without a terminal state %d times", id, maxReconnects+1)
		}
		st.reconnects++
	}
}

// readStream appends one connection's events to st and reports whether
// the terminal state event arrived.
func (d *daemon) readStream(id string, st *stream) (bool, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if n := len(st.evs); n > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(st.evs[n-1].ev.Seq, 10))
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if errors.Is(err, io.EOF) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		at := time.Now()
		switch {
		case strings.HasPrefix(line, "data: "):
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return false, fmt.Errorf("events %s: %w", id, err)
			}
			st.evs = append(st.evs, arrival{ev, at})
			if ev.Kind == "state" && terminalState(ev.State) {
				return true, nil
			}
		case strings.HasPrefix(line, ": ") && strings.Contains(line, "events dropped"):
			var n int
			fmt.Sscanf(line, ": %d", &n)
			st.dropped += n
		}
	}
}

func terminalState(s string) bool {
	switch s {
	case "done", "failed", "canceled", "deadline_exceeded":
		return true
	}
	return false
}

// fetch downloads one of the job's artifacts ("shots" or "mask").
func (d *daemon) fetch(id, what string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + "/jobs/" + id + "/" + what)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", what, id, resp.Status)
	}
	return b, nil
}

// eventLogBytes is the size of the job's durable event journal.
func (d *daemon) eventLogBytes(id string) int64 {
	st, err := os.Stat(filepath.Join(d.dir, "jobs", id, "events.log"))
	if err != nil {
		return 0
	}
	return st.Size()
}
