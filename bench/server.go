package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"deepdive"
	"deepdive/internal/corpus"
)

// The wire workloads run the KB in a child process (this binary with
// -role=server), so the load generator and the server do not share one
// scheduler. The child builds the KB through the public API from the
// same generated corpus the parent derives from the seed, serves it on a
// loopback port, and talks to the parent over its standard streams:
//
//	child → parent, first line: serverReady (address, set-up breakdown)
//	parent → child:             "handlers <seconds> <seed>" asks for the
//	                            handler loop (handlers.go); the child
//	                            answers with one handlerReport line
//	parent → child:             "ref" asks for the reference unit's CPU
//	                            times (ref.go) since the last "ref"; the
//	                            child answers with one refReport line
//	parent → child:             closes stdin to ask for shutdown
//	child → parent, last line:  serverFinal (counters read at shutdown)
//
// A parent that dies closes the pipe too, so the child never outlives it.

// wireHoldout is the share of the corpus's documents the served KB does
// not start with; they open the update streams.
const wireHoldout = 0.4

// wireSpec is the corpus behind the served KB of stream_docs and
// wire_reads: News, the paper's largest system, scaled down to what a
// 25 s window can stream into, one or two sentences per document.
func wireSpec(seed int64, scale float64) corpus.Spec {
	return lightDocs(scaledSpec("News", 0.1*scale, seed))
}

// wireKBOptions: durable, background re-materialization on (low-water a
// third of the default 1200-world store), everything else default.
func wireKBOptions(seed int64, dataDir string, faults *deepdive.IOFaultPlan) []deepdive.Option {
	extra := []deepdive.Option{deepdive.WithDataDir(dataDir), deepdive.WithRematerialization(400, 0)}
	if faults != nil {
		extra = append(extra, deepdive.WithIOFaults(faults))
	}
	return kbOptions(seed, extra...)
}

type serverReady struct {
	Addr    string     `json:"addr"`
	Stages  stageTimes `json:"stages"`
	Vars    int        `json:"vars"`
	Factors int        `json:"factors"`
	// SetupCPUms is the child's CPU time from exec to listening (the
	// reference units left out), SetupRefMS the reference unit's CPU times
	// just before and just after.
	SetupCPUms float64   `json:"setup_cpu_ms"`
	SetupRefMS []float64 `json:"setup_ref_ms"`
}

// refReport answers the "ref" command.
type refReport struct {
	RefCPUms []float64 `json:"ref_cpu_ms"`
}

type serverFinal struct {
	IO        ioCounts                `json:"io"`
	Autopilot deepdive.AutopilotStats `json:"autopilot"`
	Batches   uint64                  `json:"batches"`
	Applied   uint64                  `json:"applied"`
	// SnapBytes/WALBytes are the data directory's sizes at shutdown.
	SnapBytes int64 `json:"snap_bytes"`
	WALBytes  int64 `json:"wal_bytes"`
}

// serverMain is the child: build, serve, wait for stdin to close, report.
func serverMain(args []string) int {
	fs := flag.NewFlagSet("bench -role=server", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus seed")
	scale := fs.Float64("scale", 1, "corpus scale multiplier")
	dataDir := fs.String("datadir", "", "data directory (required)")
	if err := fs.Parse(args); err != nil || *dataDir == "" {
		fmt.Fprintln(os.Stderr, "bench -role=server: need -datadir")
		return 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ref := newRefUnit()
	var setupRef []float64
	refCPU := 0.0
	refRuns := func() {
		for i := 0; i < 5; i++ {
			d := ref.run()
			setupRef = append(setupRef, d)
			refCPU += d
		}
	}
	refRuns()
	pool := newDocPool(wireSpec(*seed, *scale), wireHoldout)
	faults := deepdive.NewIOFaultPlan(*seed) // unarmed: counts I/O calls, injects nothing
	kb, stages, err := buildKB(ctx, program(pool.sys, finalProgram), pool.base, pool.loaded, true,
		wireKBOptions(*seed, *dataDir, faults))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -role=server:", err)
		return 1
	}
	stages.CorpusMS = pool.CorpusMS
	srv, err := kb.Serve(ctx, deepdive.ServeOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -role=server:", err)
		kb.CloseNow()
		return 1
	}
	st := kb.Stats()
	setupCPU := ms(cpuClock(0)) - refCPU
	refRuns()
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(serverReady{Addr: srv.Addr(), Stages: stages, Vars: st.Variables, Factors: st.Factors,
		SetupCPUms: setupCPU, SetupRefMS: setupRef}); err != nil {
		return 1
	}
	sampler := startRefSampler(ref, 100*time.Millisecond)

	// Commands until the parent closes the pipe (or dies).
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() == "ref" {
			if err := out.Encode(refReport{RefCPUms: sampler.take()}); err != nil {
				return 1
			}
			continue
		}
		var seconds float64
		var hseed int64
		if _, err := fmt.Sscanf(in.Text(), "handlers %g %d", &seconds, &hseed); err != nil {
			fmt.Fprintf(os.Stderr, "bench -role=server: unknown command %q\n", in.Text())
			continue
		}
		// The loop reads the process's CPU clock, so the sampler's thread
		// rests meanwhile; the loop runs the unit itself, once a slice.
		sampler.finish()
		rep, err := handlerLoop(ctx, kb, srv.Handler(), ref, time.Duration(seconds*float64(time.Second)), hseed)
		sampler = startRefSampler(ref, 100*time.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench -role=server: handler loop:", err)
			rep = handlerReport{Error: err.Error()}
		}
		if err := out.Encode(rep); err != nil {
			return 1
		}
	}
	sampler.finish()

	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	_ = srv.Shutdown(sctx) // streams end with a drain event; a timeout only means a client lingered
	scancel()
	final := serverFinal{IO: readIOCounts(faults), Autopilot: kb.Autopilot(),
		Batches: kb.Updates().Batches(), Applied: kb.Updates().Applied()}
	code := 0
	if err := kb.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench -role=server: close:", err)
		code = 1
	}
	_, final.SnapBytes, final.WALBytes = dataDirSizes(*dataDir)
	if err := out.Encode(final); err != nil {
		return 1
	}
	return code
}

// serverProc is the parent's handle on a child server.
type serverProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lines   *bufio.Reader
	Ready   serverReady
	SetupS  float64 // spawn → ready line, seconds
	DataDir string
}

// startServer spawns the child and waits for its ready line.
func startServer(cfg *config, seed int64, dataDir string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	cmd := exec.Command(exe, "-role=server",
		"-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-datadir", dataDir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, lines: bufio.NewReader(stdout), DataDir: dataDir}
	line, err := p.lines.ReadBytes('\n')
	if err != nil {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
		return nil, fmt.Errorf("server child exited before it was ready: %w", err)
	}
	if err := json.Unmarshal(line, &p.Ready); err != nil {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
		return nil, fmt.Errorf("server child's ready line: %w", err)
	}
	p.SetupS = time.Since(t).Seconds()
	return p, nil
}

func (p *serverProc) base() string { return "http://" + p.Ready.Addr }

// peakRSSMB reads the child's VmHWM; call it before stop.
func (p *serverProc) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(p.cmd.Process.Pid)) }

// ref asks the child for the reference unit's CPU times since the last
// call.
func (p *serverProc) ref() ([]float64, error) {
	var rep refReport
	if _, err := fmt.Fprintln(p.stdin, "ref"); err != nil {
		return nil, err
	}
	line, err := p.lines.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("server child's reference report: %w", err)
	}
	if err := json.Unmarshal(line, &rep); err != nil {
		return nil, fmt.Errorf("server child's reference report: %w", err)
	}
	return rep.RefCPUms, nil
}

// handlers asks the child to serve the read mix into memory for the given
// time and returns its report.
func (p *serverProc) handlers(seconds float64, seed int64) (handlerReport, error) {
	var rep handlerReport
	if _, err := fmt.Fprintf(p.stdin, "handlers %g %d\n", seconds, seed); err != nil {
		return rep, err
	}
	line, err := p.lines.ReadBytes('\n')
	if err != nil {
		return rep, fmt.Errorf("server child's handler report: %w", err)
	}
	if err := json.Unmarshal(line, &rep); err != nil {
		return rep, fmt.Errorf("server child's handler report: %w", err)
	}
	if rep.Error != "" {
		return rep, fmt.Errorf("server child's handler loop: %s", rep.Error)
	}
	return rep, nil
}

// stop asks the child to shut down and waits until it has exited.
func (p *serverProc) stop() (serverFinal, error) {
	var final serverFinal
	_ = p.stdin.Close()
	line, rerr := p.lines.ReadBytes('\n')
	werr := p.cmd.Wait()
	if rerr != nil {
		return final, fmt.Errorf("server child's final line: %w", rerr)
	}
	if err := json.Unmarshal(line, &final); err != nil {
		return final, fmt.Errorf("server child's final line: %w", err)
	}
	if werr != nil {
		return final, fmt.Errorf("server child: %w", werr)
	}
	return final, nil
}

// kill is the error path: no report wanted, just make sure it is gone.
func (p *serverProc) kill() {
	_ = p.stdin.Close()
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}
