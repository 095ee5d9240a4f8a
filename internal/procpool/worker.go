package procpool

import (
	"context"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// WorkerEnv marks a process as a tile worker. Supervisors set it to "1"
// in every child they spawn; binaries that can serve as their own
// worker (cmd/cfaopc, the flow test binary) branch on InWorker before
// doing anything else.
const WorkerEnv = "CFAOPC_TILE_WORKER"

// InWorker reports whether this process was spawned as a tile worker.
func InWorker() bool { return os.Getenv(WorkerEnv) == "1" }

// SelfKill terminates the current process with SIGKILL — no deferred
// cleanup, no reply frame, exactly what an OOM kill or a runtime fatal
// looks like from the supervisor's side. The deterministic fault
// harness (quarantine.Fault.Kill) uses it to script worker death mid-tile.
// It never returns.
func SelfKill() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // SIGKILL cannot be handled; this is unreachable
}

// pingEvery is the worker's liveness cadence while a task is in
// flight. Idle workers stay silent — the supervisor's watchdog only
// runs while it is waiting on a reply.
const pingEvery = 100 * time.Millisecond

// Sink receives the liveness and snapshot stream a running task emits;
// Serve forwards each call as one frame to the supervisor.
type Sink interface {
	Beat(index, iter int, loss float64)
	Partial(index int, s PartialState)
}

// Runner executes one task and returns its reply. The flow side
// (flow.ServeTask via a caller-built adapter) is injected rather than
// imported so procpool stays a leaf package.
type Runner func(ctx context.Context, t *Task, sink Sink) Reply

// frameSink forwards Beat/Partial calls as frames through a shared
// serialized writer.
type frameSink struct {
	send func(*Message) error
}

func (s frameSink) Beat(index, iter int, loss float64) {
	s.send(&Message{Beat: &Beat{Index: index, Iter: iter, Loss: loss}})
}

func (s frameSink) Partial(index int, p PartialState) {
	s.send(&Message{Partial: &Partial{Index: index, State: p}})
}

// Serve is the worker main loop: announce Hello, then read tasks off r
// one at a time, run each through the injected Runner while pinging,
// and write the reply to w. EOF on r is the supervisor's clean shutdown
// and returns nil; any other stream error is fatal to the worker.
func Serve(r io.Reader, w io.Writer, run Runner) error {
	var mu sync.Mutex
	send := func(m *Message) error {
		payload, err := EncodeMessage(m)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return WriteFrame(w, payload)
	}
	if err := send(&Message{Hello: &Hello{Version: ProtocolVersion, PID: os.Getpid()}}); err != nil {
		return err
	}
	return serveTasks(r, send, run)
}

// ServeTasks is the worker task loop without the opening Hello — for
// transports whose handshake has already completed (internal/netpool's
// TCP sessions, where both sides exchanged Hello frames before the
// first task). Semantics otherwise match Serve.
func ServeTasks(r io.Reader, w io.Writer, run Runner) error {
	var mu sync.Mutex
	send := func(m *Message) error {
		payload, err := EncodeMessage(m)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return WriteFrame(w, payload)
	}
	return serveTasks(r, send, run)
}

// serveTasks reads tasks one at a time, runs each through the Runner
// while pinging, and sends the reply through send.
func serveTasks(r io.Reader, send func(*Message) error, run Runner) error {
	for {
		payload, err := ReadFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		m, err := DecodeMessage(payload)
		if err != nil {
			return err
		}
		if m.Task == nil {
			continue // tolerate non-task frames from future supervisors
		}
		stop := make(chan struct{})
		var pingers sync.WaitGroup
		pingers.Add(1)
		go func() {
			defer pingers.Done()
			t := time.NewTicker(pingEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					send(&Message{Ping: &Ping{}})
				}
			}
		}()
		reply := run(context.Background(), m.Task, frameSink{send: send})
		close(stop)
		pingers.Wait()
		if err := send(&Message{Reply: &reply}); err != nil {
			return err
		}
	}
}
