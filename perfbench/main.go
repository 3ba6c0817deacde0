// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, runs them through the public fluxquery
// API or a fluxserve child process built from the same tree, checks
// every output against the reference engine, and prints the workload's
// metrics as one JSON object on the last line of standard output.
//
//	perfbench -workload xmark-stream -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// replays the same inputs up a ladder of calls into each layer and
// prints the per-layer metrics, writing the recorded spans to
// -workdir. run.sh builds both binaries and runs this command;
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	workdir   string
	fluxserve string
}

func main() {
	var (
		cfg     config
		trace   int
		oracleP bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: xmark-stream, buffered-spill or serve-subscriptions")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced ladder")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the DTD file, spill files and the trace")
	flag.StringVar(&cfg.fluxserve, "fluxserve", ".bench_build/fluxserve", "fluxserve binary built from the tree under test")
	flag.BoolVar(&oracleP, "oracle", false, "internal: print the reference digests of -workload and -seed")
	flag.Parse()
	cfg.trace = trace == 1

	if oracleP {
		if err := runOracleProcess(cfg.workload, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench oracle:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	in, err := makeInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	if cfg.workdir, err = filepath.Abs(cfg.workdir); err != nil {
		return nil, err
	}
	if cfg.fluxserve, err = filepath.Abs(cfg.fluxserve); err != nil {
		return nil, err
	}
	ctx := context.Background()
	orc, err := loadOracle(ctx, in)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return runLadder(ctx, cfg, in, orc, budget)
	}
	var m *measured
	switch in.Workload {
	case "xmark-stream":
		m, err = runXmark(in, orc, budget)
	case "buffered-spill":
		m, err = runSpill(cfg, in, orc, budget)
	case "serve-subscriptions":
		m, err = runServe(ctx, cfg, in, orc, budget)
	}
	if err != nil {
		return nil, err
	}
	return m.result()
}
