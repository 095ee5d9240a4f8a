// Command tileworker is the standalone tile-worker binary for the
// tiled flow's distributed modes. By default it speaks the procpool
// frame protocol on stdin/stdout (the -proc-workers subprocess
// transport); with -listen it becomes a multi-host shard: a TCP server
// speaking the same protocol, one handshaken session per coordinator
// connection (flow.Config.RemoteHosts). cmd/cfaopc re-executes itself
// as its own pipe worker by default, so the pipe mode of this binary
// exists for deployments that want the worker pinned to a separate
// (smaller, or differently sandboxed) executable via -worker-bin.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfaopc/internal/flow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tileworker: ")
	listen := flag.String("listen", "", "serve tile tasks over TCP on this address (e.g. :9643); empty serves stdin/stdout")
	fingerprint := flag.String("fingerprint", "", "config fingerprint pin: reject coordinators whose run config differs (empty accepts any)")
	handshake := flag.Duration("handshake", 5*time.Second, "deadline for each connection's Hello exchange")
	flag.Parse()

	if *listen == "" {
		if err := flow.Serve(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	// SIGINT/SIGTERM close the listener; in-flight sessions finish
	// their current task stream before Listen returns.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("shutting down")
		ln.Close()
	}()
	if err := flow.Listen(ln, *fingerprint, *handshake); err != nil {
		log.Fatal(err)
	}
}
