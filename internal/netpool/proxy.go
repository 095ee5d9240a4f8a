package netpool

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cfaopc/internal/procpool"
)

// FaultKind enumerates the link failures the chaos Proxy injects — the
// network analog of flow.FaultPlan's per-attempt fault script.
type FaultKind int

const (
	// FaultNone forwards faithfully (the explicit no-op script).
	FaultNone FaultKind = iota
	// FaultRefuse closes the connection immediately on accept — the
	// observable shape of a dead or partitioned host.
	FaultRefuse
	// FaultCut forwards until the trigger, then drops the connection —
	// a link failure or host death mid-tile.
	FaultCut
	// FaultTrunc forwards until the trigger, then ships half a frame
	// and drops the connection — a torn frame at the coordinator.
	FaultTrunc
	// FaultGarble forwards until the trigger, then flips one payload
	// byte — the CRC guard turns it into a poisoned-link detection.
	FaultGarble
	// FaultStall forwards until the trigger, then stops forwarding
	// while holding the connection open — a wedged remote; only the
	// silence watchdog can see it.
	FaultStall
	// FaultDelay adds a fixed pause before every worker→coordinator
	// frame from the trigger on — latency without failure.
	FaultDelay
)

// ConnScript is the fault schedule for one proxied connection. Faults
// fire on the worker→coordinator stream (the direction carrying
// replies, beats, and partials) once the trigger is reached: after
// AfterFrames forwarded frames, or — when AfterPartials > 0 — after
// that many Partial frames have been forwarded (the deterministic way
// to cut a link "mid-tile, after the journal saw a snapshot").
type ConnScript struct {
	Fault         FaultKind
	AfterFrames   int
	AfterPartials int
	Delay         time.Duration // FaultDelay's per-frame pause
}

// Proxy is a deterministic network fault injector: a TCP forwarder in
// front of a real worker host that applies a per-connection fault
// script, in accept order. Connections beyond the script list forward
// faithfully, so "fail twice, then heal" is the natural encoding.
// Because the scripts key on connection ordinals and frame counts —
// not on timing — a chaos run is reproducible.
type Proxy struct {
	ln      net.Listener
	target  string
	scripts []ConnScript

	mu       sync.Mutex
	accepted int

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and forwards each accepted
// connection to target under its script.
func NewProxy(target string, scripts ...ConnScript) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netpool: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, scripts: scripts, closed: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's dial address — what the coordinator's RemoteHosts
// entry points at.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted reports how many connections the proxy has seen — the next
// connection gets script index Accepted().
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// Close stops accepting, tears down in-flight forwards, and waits for
// them to finish.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.ln.Close()
	})
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		n := p.accepted
		p.accepted++
		p.mu.Unlock()
		script := ConnScript{}
		if n < len(p.scripts) {
			script = p.scripts[n]
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.forward(client, script)
		}()
	}
}

// forward runs one proxied connection to completion under its script.
func (p *Proxy) forward(client net.Conn, script ConnScript) {
	defer client.Close()
	if script.Fault == FaultRefuse {
		return // accept, say nothing, hang up: a dead host
	}
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer server.Close()

	// Tear both sides down on proxy Close so a stalled connection does
	// not outlive the test.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-p.closed:
			client.Close()
			server.Close()
		case <-stop:
		}
	}()

	// Coordinator→worker: forwarded faithfully (the scripts model a
	// lossy return path; task frames either arrive or the cut kills
	// both directions anyway). Half-close propagates so the worker's
	// task loop sees its EOF on graceful coordinator shutdown.
	go func() {
		io.Copy(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		} else {
			server.Close()
		}
	}()

	p.pump(client, server, script)
}

// pump forwards worker→coordinator frames, firing the script's fault at
// its trigger.
func (p *Proxy) pump(client, server net.Conn, script ConnScript) {
	frames, partials := 0, 0
	triggered := func() bool {
		if script.AfterPartials > 0 {
			return partials >= script.AfterPartials
		}
		return frames >= script.AfterFrames
	}
	for {
		header, payload, err := readRawFrame(server)
		if err != nil {
			return // worker closed or died: propagate by closing (deferred)
		}
		if script.Fault != FaultNone && triggered() {
			switch script.Fault {
			case FaultCut:
				return
			case FaultTrunc:
				client.Write(header)
				client.Write(payload[:len(payload)/2])
				return
			case FaultGarble:
				payload[len(payload)/2] ^= 0x40
				client.Write(header)
				client.Write(payload)
				return
			case FaultStall:
				// Hold both connections open, forward nothing: only a
				// silence watchdog can tell this from a slow tile.
				<-p.closed
				return
			case FaultDelay:
				select {
				case <-time.After(script.Delay):
				case <-p.closed:
					return
				}
			}
		}
		if _, err := client.Write(header); err != nil {
			return
		}
		if _, err := client.Write(payload); err != nil {
			return
		}
		frames++
		if isPartialFrame(payload) {
			partials++
		}
	}
}

// readRawFrame reads one length-prefixed frame (8-byte header +
// payload) without validating the CRC — the proxy forwards bytes, it
// does not speak the protocol, except to count frame boundaries.
func readRawFrame(r io.Reader) (header, payload []byte, err error) {
	header = make([]byte, 8)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, nil, err
	}
	ln := binary.BigEndian.Uint32(header[0:4])
	if int(ln) > procpool.MaxFrameBytes {
		return nil, nil, fmt.Errorf("netpool: proxy saw oversized frame (%d bytes)", ln)
	}
	payload = make([]byte, ln)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, nil, err
	}
	return header, payload, nil
}

// isPartialFrame reports whether a forwarded payload is a Partial
// snapshot frame — the AfterPartials trigger's counter.
func isPartialFrame(payload []byte) bool {
	m, err := procpool.DecodeMessage(payload)
	return err == nil && m.Partial != nil
}
