// Command paperbench regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	paperbench [flags] [-table1] [-table2] [-table3] [-fig1] [-fig6] [-fig7]
//
// With no selection flags, everything runs. Tables and figure series print
// to stdout; Figure 6 writes PNG triptychs under -out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cfaopc/internal/bench"
	"cfaopc/internal/flow"
	"cfaopc/internal/procpool"
)

// hostEnv carries the listen address into a re-exec'd TCP host for the
// -remote exhibit.
const hostEnv = "PAPERBENCH_NET_HOST"

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")

	if procpool.InWorker() {
		// Re-executed as our own tile worker for the -remote exhibit:
		// either a loopback TCP host or a pipe worker subprocess.
		if addr := os.Getenv(hostEnv); addr != "" {
			runHost(addr)
		}
		flow.ServeIfWorker()
	}

	var (
		gridN    = flag.Int("grid", 256, "simulation grid (pixels per 2048 nm tile side): 256=8nm/px, 512=4nm/px, 2048=1nm/px")
		cases    = flag.String("cases", "", "comma-separated 1-based case subset (default: all ten)")
		baseIter = flag.Int("baseline-iters", 40, "pixel-engine iterations")
		coIter   = flag.Int("circleopt-iters", 60, "CircleOpt stage-2 iterations")
		initIter = flag.Int("init-iters", 24, "CircleOpt stage-1 MOSAIC iterations")
		kOpt     = flag.Int("kopt", 5, "kernels used during optimization")
		workers  = flag.Int("workers", -1, "litho worker goroutines (-1 = all cores, 1 = serial)")
		tileWkr  = flag.Int("tile-workers", 4, "max tile workers swept by the -flow exhibit")
		outDir   = flag.String("out", "figures", "output directory for Figure 6 PNGs")
		jsonDir  = flag.String("json", "", "also write each exhibit as JSON into this directory")
		t1       = flag.Bool("table1", false, "run Table 1")
		t2       = flag.Bool("table2", false, "run Table 2")
		t3       = flag.Bool("table3", false, "run Table 3")
		f1       = flag.Bool("fig1", false, "run Figure 1")
		f6       = flag.Bool("fig6", false, "run Figure 6 (PNG renders)")
		f7       = flag.Bool("fig7", false, "run Figure 7")
		abl      = flag.Bool("ablations", false, "run the design-choice ablations (STE, coverage repair, alpha, K_opt)")
		ext      = flag.Bool("extensions", false, "run the extension experiments (DoseOpt, greedy set cover, compaction)")
		fl       = flag.Bool("flow", false, "run the tiled full-chip flow exhibit (worker sweep, streamed vs dense-mask peak memory)")
		ft       = flag.Bool("faults", false, "run the fault-tolerance exhibit (injected faults, degradation, checkpoint resume)")
		ca       = flag.Bool("cache", false, "run the window-dedup cache exhibit (cold/warm memory and disk sweep on the repeated-cell array)")
		rm       = flag.Bool("remote", false, "run the distributed tile-worker exhibit (in-process vs worker subprocesses vs loopback TCP hosts)")
	)
	flag.Parse()

	all := !*t1 && !*t2 && !*t3 && !*f1 && !*f6 && !*f7 && !*abl && !*ext && !*fl && !*ft && !*ca && !*rm

	o := bench.DefaultOptions()
	o.GridN = *gridN
	o.BaselineIters = *baseIter
	o.CircleOptIters = *coIter
	o.InitIters = *initIter
	o.KOpt = *kOpt
	o.Workers = *workers
	if *cases != "" {
		for _, tok := range strings.Split(*cases, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				log.Fatalf("bad -cases entry %q: %v", tok, err)
			}
			o.Cases = append(o.Cases, id)
		}
	}

	emit := func(name string, v any) {
		if *jsonDir == "" {
			return
		}
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*jsonDir, name+".json"), data, 0o644); err != nil {
			log.Fatal(err)
		}
	}

	start := time.Now()
	r, err := bench.NewRunner(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# grid %d (%.1f nm/px), %d cases, baseline %d iters, CircleOpt %d iters\n\n",
		o.GridN, r.Sim.DX, len(r.Suite), o.BaselineIters, o.CircleOptIters)

	if all || *t1 {
		t := r.Table1()
		fmt.Println(t.Format())
		emit("table1", t)
	}
	if all || *t2 {
		t := r.Table2()
		fmt.Println(t.Format())
		emit("table2", t)
	}
	if all || *t3 {
		t := r.Table3()
		fmt.Println(t.Format())
		emit("table3", t)
	}
	if all || *f1 {
		t := r.Figure1()
		fmt.Println(t.Format())
		emit("figure1", t)
	}
	if all || *f7 {
		shot, quality, epe := r.Figure7()
		fmt.Println(shot.Format())
		fmt.Println(quality.Format())
		fmt.Println(epe.Format())
		emit("figure7a", shot)
		emit("figure7b", quality)
		emit("figure7c", epe)
	}
	if *ext { // extensions only on request
		fmt.Println(r.ExtensionDose().Format())
		fmt.Println(r.ExtensionGreedy().Format())
		fmt.Println(r.ExtensionCompaction().Format())
	}
	if *fl { // tiled flow exhibit only on request: it optimizes a full chip per worker count
		fo := bench.DefaultFlowOptions(o.GridN)
		fo.TileWorkers = nil
		for _, tw := range []int{1, 2, *tileWkr} {
			if tw >= 1 && !containsInt(fo.TileWorkers, tw) {
				fo.TileWorkers = append(fo.TileWorkers, tw)
			}
		}
		t, err := r.FlowTable(fo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
		emit("flow", t)
	}
	if *ca { // cache exhibit only on request: it optimizes the array five times
		co := bench.DefaultCacheOptions(o.GridN)
		dir, err := os.MkdirTemp("", "cfaopc-cache-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		co.DiskDir = dir
		t, err := r.CacheTable(co)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
		emit("cache", t)
	}
	if *rm { // remote exhibit only on request: it optimizes the chip once per transport
		ro := bench.DefaultRemoteOptions(o.GridN)
		self, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		ro.WorkerCmd = func() *exec.Cmd {
			cmd := exec.Command(self)
			cmd.Stderr = os.Stderr
			return cmd
		}
		ro.StartHost = func() (string, func(), error) { return startHost(self) }
		t, err := r.RemoteTable(ro)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
		emit("remote", t)
	}
	if *ft { // fault exhibit only on request: it runs the faulted chip three times
		t, err := r.FaultTable(bench.DefaultFaultOptions(o.GridN))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
		emit("faults", t)
	}
	if *abl { // ablations only on request: they re-run CircleOpt repeatedly
		fmt.Println(r.AblationSTE().Format())
		fmt.Println(r.AblationCoverageRepair().Format())
		fmt.Println(r.AblationAlpha([]float64{2, 4, 8, 16}).Format())
		fmt.Println(r.AblationKernels([]int{2, 5, 9}).Format())
	}
	if all || *f6 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for ci := range r.Suite {
			files, err := r.RenderCase(ci, *outDir)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("Figure 6: wrote %s\n", strings.Join(files, ", "))
		}
		fmt.Println()
	}
	fmt.Printf("# total wall time: %s\n", time.Since(start).Round(time.Second))
}

// runHost is the child-side TCP host for the -remote exhibit: listen,
// announce the bound address on stdout, serve handshaken coordinator
// sessions with the engine-backed runner until killed.
func runHost(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	if err := flow.Listen(ln, "", 5*time.Second); err != nil {
		log.Fatal(err)
	}
	os.Exit(0)
}

// startHost re-executes this binary as a loopback TCP tile-worker host
// and scrapes the address it bound.
func startHost(self string) (string, func(), error) {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), procpool.WorkerEnv+"=1", hostEnv+"=127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
			go io.Copy(io.Discard, out)
			stop := func() {
				cmd.Process.Kill()
				cmd.Wait()
			}
			return addr, stop, nil
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return "", nil, fmt.Errorf("host exited before announcing its address")
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
