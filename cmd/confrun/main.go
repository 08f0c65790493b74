// confrun loads a linked U image, binds the trusted runtime, and executes
// it on the emulated machine, reporting the observable channels and the
// cycle statistics.
//
// Usage:
//
//	confrun [-param n]... [-file name=content]... [-privfile name=content]...
//	        [-passwd user=pw]... [-stats] [-trace out.json] [-chrometrace out.json]
//	        [-profile out.folded] prog.img
//
// The observability flags surface the deterministic plane (internal/obs)
// for one run: -stats prints the full simulated counter set, -trace
// writes a span-tree JSON of every trusted-handler call under one "run"
// root (all timestamps simulated cycles), -chrometrace writes the same
// tree in Chrome trace-event format for chrome://tracing or Perfetto,
// and -profile enables the machine's cycle-attribution profiler and
// writes a folded-stack per-function profile whose cycle total equals
// the run's cycle counter exactly. All four are pure observation: the
// simulated execution is bit-identical with or without them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var params, files, privFiles, passwds listFlag
	flag.Var(&params, "param", "append an integer scenario parameter (repeatable)")
	flag.Var(&files, "file", "add a public file as name=content (repeatable)")
	flag.Var(&privFiles, "privfile", "add a private file as name=content (repeatable)")
	flag.Var(&passwds, "passwd", "add a stored password as user=pw (repeatable)")
	stats := flag.Bool("stats", false, "print the full simulated statistics")
	tracePath := flag.String("trace", "", "write a span-tree JSON trace of trusted-handler calls")
	chromePath := flag.String("chrometrace", "", "write the trace in Chrome trace-event format")
	profilePath := flag.String("profile", "", "write a folded-stack per-function cycle profile")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: confrun [flags] prog.img")
		os.Exit(2)
	}
	art, err := confllvm.LoadArtifactFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	w := confllvm.NewWorld()
	for _, p := range params {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			fatal(err)
		}
		w.Params = append(w.Params, v)
	}
	addKV := func(entries []string, m map[string][]byte) {
		for _, e := range entries {
			k, v, ok := strings.Cut(e, "=")
			if !ok {
				fatal(fmt.Errorf("bad entry %q, want name=value", e))
			}
			m[k] = []byte(v)
		}
	}
	addKV(files, w.Files)
	addKV(privFiles, w.PrivFiles)
	addKV(passwds, w.Passwords)

	// Handler observations feed the trace exports. Spans are emitted as
	// handler-call records first and re-rooted under the "run" span after
	// the run, when the root's extent is known.
	type call struct {
		name       string
		start, end uint64
	}
	var calls []call
	if *tracePath != "" || *chromePath != "" {
		w.Observe = func(name string, start, end uint64) {
			calls = append(calls, call{name, start, end})
		}
	}
	// Build an explicit machine config only when profiling is on (nil
	// means "library default").
	var mconf *machine.Config
	if *profilePath != "" {
		c := machine.DefaultConfig()
		c.Profile = true
		mconf = &c
	}

	res, err := confllvm.Run(art, w, mconf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("variant:   %v\n", art.Variant)
	fmt.Printf("exit code: %d\n", res.ExitCode)
	if res.Fault != nil {
		fmt.Printf("FAULT:     %v\n", res.Fault)
	}
	fmt.Printf("cycles:    %d (wall %d)\n", res.Stats.Cycles, res.WallCycles)
	fmt.Printf("instrs:    %d  loads: %d  stores: %d  bnd-checks: %d (masked %d)  L1-misses: %d\n",
		res.Stats.Instrs, res.Stats.Loads, res.Stats.Stores,
		res.Stats.BndChecks, res.Stats.BndMasked, res.Stats.CacheMisses)
	if *stats {
		fmt.Printf("trusted:   %d calls\n", res.Stats.TrustedCall)
		fmt.Printf("sim time:  %d ns at %.1f GHz (wall cycles / simulated clock)\n",
			res.WallCycles*1_000_000_000/bench.SimClockHz, float64(bench.SimClockHz)/1e9)
	}
	for i, o := range res.Outputs {
		fmt.Printf("output[%d]: %d\n", i, o)
	}
	for i, pkt := range res.NetOut {
		fmt.Printf("net[%d]:    %q\n", i, clip(pkt))
	}
	if len(res.Log) > 0 {
		fmt.Printf("log:       %q\n", clip(res.Log))
	}

	if *tracePath != "" || *chromePath != "" {
		tr := obs.NewTracer()
		root := tr.Span("run", 0, 0, res.Stats.Cycles)
		for _, c := range calls {
			tr.Span("T:"+c.name, root, c.start, c.end)
		}
		if err := tr.WellFormed(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if *tracePath != "" {
			data, err := tr.JSON()
			if err != nil {
				fatal(err)
			}
			writeFile(*tracePath, append(data, '\n'))
			fmt.Printf("trace:     %s (%d spans)\n", *tracePath, tr.Len())
		}
		if *chromePath != "" {
			data, err := tr.ChromeTrace(bench.SimClockHz / 1_000_000)
			if err != nil {
				fatal(err)
			}
			writeFile(*chromePath, append(data, '\n'))
			fmt.Printf("chrome:    %s (%d events)\n", *chromePath, tr.Len())
		}
	}
	if *profilePath != "" {
		prof := obs.FlattenProfile(res.Profile, art.Image)
		if got, want := prof.TotalCycles(), res.Stats.Cycles; got != want {
			fatal(fmt.Errorf("profile attributed %d cycles, run counted %d", got, want))
		}
		writeFile(*profilePath, []byte(prof.Folded()))
		fmt.Printf("profile:   %s (%d symbols, %d cycles)\n",
			*profilePath, len(prof.Top()), prof.TotalCycles())
	}
	if res.Fault != nil {
		os.Exit(1)
	}
}

func writeFile(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
}

func clip(b []byte) []byte {
	if len(b) > 80 {
		return append(append([]byte{}, b[:77]...), '.', '.', '.')
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "confrun:", err)
	os.Exit(1)
}
