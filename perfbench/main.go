// Command perfbench is the repository's benchmark: the host cost of
// answering a design question with the simulator, end to end and per
// layer, on four workloads. See README.md in this directory.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "workload name, or all")
	seed := fl.Uint64("seed", defaultSeed, "input seed; fingerprints are checked at the default seed only")
	seconds := fl.Int("seconds", 20, "seconds each run measures")
	traceMode := fl.Int("trace", 0, "0 = timed end-to-end metrics, 1 = traced per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	if *name == "all" {
		return runAll(*seed, *seconds, *traceMode, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	var r report
	if *traceMode == 1 {
		var err error
		if r, err = tracedRun(w, *seed, d); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			return 1
		}
	} else {
		var err error
		if r, err = timed(w, *seed, d); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			return 1
		}
	}
	if err := r.print(stdout, newHostContext(*seed)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// hostContext is printed with every report.
type hostContext struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
}

func newHostContext(seed uint64) hostContext {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return hostContext{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		Seed: seed, Commit: gitCommit("."),
	}
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// childTimeout bounds one workload's process in --workload all.
const childTimeout = 170 * time.Second

// runAll runs every workload in its own process, so a crash, a hang or a
// heap peak stays with its workload, and prints each one's report. A
// workload that fails is reported failed; the others still report.
func runAll(seed uint64, seconds, traceMode int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range workloads {
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		cmd := exec.CommandContext(ctx, self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceMode))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		cancel()
		stdout.Write(out.Bytes()) // best effort: the summary line follows
		res, perr := lastResult(out.Bytes())
		if runErr != nil || perr != nil {
			fmt.Fprintf(stdout, "# FAILED: workload %s: %v\n", w.Name, errors.Join(runErr, perr))
			all.Correct = false
			all.Attempted++
			all.Failed++
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.Name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// lastResult parses the result line a workload process printed last.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
