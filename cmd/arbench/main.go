// Command arbench regenerates the thesis's evaluation tables and figures
// (Chapter 5) on the simulated machine and prints the series each figure
// plots.
//
// Usage:
//
//	arbench -fig all            # every table and figure
//	arbench -fig 5.1a           # one figure
//	arbench -fig 5.4 -scale tiny
//
// Figure ids: table4.1, 5.1a, 5.1b, 5.2a, 5.2b, 5.3, 5.4, 5.5, 5.6, 5.7,
// 5.8.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workload"
)

type runner struct {
	scale workload.Scale
	out   io.Writer
	bench *experiments.Suite // benchmark suite cache
	micro *experiments.Suite // microbenchmark suite cache
}

func (r *runner) benchSuite() (*experiments.Suite, error) {
	if r.bench == nil {
		s, err := experiments.RunSuite(r.scale, workload.Benchmarks(), system.Schemes(), nil)
		if err != nil {
			return nil, err
		}
		r.bench = s
	}
	return r.bench, nil
}

func (r *runner) microSuite() (*experiments.Suite, error) {
	if r.micro == nil {
		s, err := experiments.RunSuite(r.scale, workload.Microbenchmarks(), system.Schemes(), nil)
		if err != nil {
			return nil, err
		}
		r.micro = s
	}
	return r.micro, nil
}

func (r *runner) run(fig string) error {
	out := r.out
	switch fig {
	case "table4.1":
		experiments.Table41(out)
	case "5.1a":
		s, err := r.benchSuite()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 5.1(a): Runtime Speedup over DRAM (benchmarks)")
		t, err := experiments.Fig51(s)
		if err != nil {
			return err
		}
		t.Print(out)
	case "5.1b":
		s, err := r.microSuite()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 5.1(b): Runtime Speedup over DRAM (microbenchmarks)")
		t, err := experiments.Fig51(s)
		if err != nil {
			return err
		}
		t.Print(out)
	case "5.2a":
		s, err := r.benchSuite()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 5.2(a): Update Roundtrip Latency Breakdown (benchmarks)")
		experiments.Fig52(s).Print(out)
	case "5.2b":
		s, err := r.microSuite()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 5.2(b): Update Roundtrip Latency Breakdown (microbenchmarks)")
		experiments.Fig52(s).Print(out)
	case "5.3":
		s, err := r.benchSuite()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 5.3: LUD Stalls and Update Distribution (per-cube 4x4 grids)")
		experiments.PrintHeatmaps(out, experiments.Fig53(s))
	case "5.4":
		s, err := r.benchSuite()
		if err != nil {
			return err
		}
		m, err := r.microSuite()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 5.4(a): Data Movement normalized to HMC (benchmarks)")
		tb, err := experiments.Fig54(s)
		if err != nil {
			return err
		}
		tb.Print(out)
		fmt.Fprintln(out, "Figure 5.4(b): Data Movement normalized to HMC (microbenchmarks)")
		tm, err := experiments.Fig54(m)
		if err != nil {
			return err
		}
		tm.Print(out)
	case "5.5", "5.6":
		asPower := fig == "5.5"
		name := map[bool]string{true: "Power", false: "Energy"}[asPower]
		figno := map[bool]string{true: "5.5", false: "5.6"}[asPower]
		s, err := r.benchSuite()
		if err != nil {
			return err
		}
		m, err := r.microSuite()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Figure %s(a): Normalized %s over DRAM (benchmarks)\n", figno, name)
		tb, err := experiments.Fig55to57(s, asPower)
		if err != nil {
			return err
		}
		tb.Print(out, "benchmarks")
		fmt.Fprintf(out, "Figure %s(b): Normalized %s over DRAM (microbenchmarks)\n", figno, name)
		tm, err := experiments.Fig55to57(m, asPower)
		if err != nil {
			return err
		}
		tm.Print(out, "microbenchmarks")
	case "5.7":
		s, err := r.benchSuite()
		if err != nil {
			return err
		}
		m, err := r.microSuite()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 5.7: Normalized Energy-Delay Product over DRAM")
		tb, err := experiments.Fig55to57(s, false)
		if err != nil {
			return err
		}
		tb.Print(out, "benchmarks")
		tm, err := experiments.Fig55to57(m, false)
		if err != nil {
			return err
		}
		tm.Print(out, "microbenchmarks")
	case "5.8":
		fmt.Fprintln(out, "Figure 5.8: LUD Phase Analysis and Dynamic Offloading")
		res, err := experiments.Fig58(r.scale)
		if err != nil {
			return err
		}
		res.Print(out)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func main() {
	figFlag := flag.String("fig", "all", "figure to regenerate (all, table4.1, 5.1a, 5.1b, 5.2a, 5.2b, 5.3, 5.4, 5.5, 5.6, 5.7, 5.8)")
	scaleFlag := flag.String("scale", "small", "input scale (tiny, small, medium)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	scale, err := workload.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbench:", err)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "arbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "arbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "arbench:", err)
			}
		}()
	}
	r := &runner{scale: scale, out: os.Stdout}
	figs := []string{*figFlag}
	if *figFlag == "all" {
		figs = []string{"table4.1", "5.1a", "5.1b", "5.2a", "5.2b", "5.3", "5.4", "5.5", "5.6", "5.7", "5.8"}
	}
	for _, f := range figs {
		if err := r.run(f); err != nil {
			fmt.Fprintln(os.Stderr, "arbench:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
