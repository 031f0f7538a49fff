// Command agtram solves one Data Replication Problem instance with a chosen
// method and reports the outcome: OTC savings, replicas placed, runtime and
// (for AGT-RAM) the mechanism's rounds and payments.
//
// Examples:
//
//	agtram -M 128 -N 800 -capacity 20 -rw 0.9
//	agtram -method greedy -M 128 -N 800 -capacity 20 -rw 0.9
//	agtram -method agt-ram -engine sync -M 64 -N 400
//	agtram -all -M 128 -N 800   # run every method, print a comparison
//	agtram -json -M 64 -N 400   # machine-readable result on stdout
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro"
	"repro/cmd/internal/cliflags"
)

// jsonResult is the -json output shape: one object per solve.
type jsonResult struct {
	Method    string  `json:"method"`
	Engine    string  `json:"engine,omitempty"`
	Servers   int     `json:"servers"`
	Objects   int     `json:"objects"`
	Seed      int64   `json:"seed"`
	OTC       int64   `json:"otc"`
	BaseOTC   int64   `json:"base_otc"`
	Savings   float64 `json:"savings_percent"`
	Replicas  int     `json:"replicas"`
	RuntimeMS float64 `json:"runtime_ms"`
	Work      int64   `json:"work"`
	Rounds    int     `json:"rounds,omitempty"`
	Payments  int64   `json:"payments,omitempty"`
	Winners   int     `json:"winning_servers,omitempty"`
	Evictions []struct {
		Agent  int    `json:"agent"`
		Round  int    `json:"round"`
		Reason string `json:"reason"`
	} `json:"evictions,omitempty"`
}

func toJSONResult(icfg repro.InstanceConfig, engine string, res *repro.Result) jsonResult {
	out := jsonResult{
		Method:    string(res.Method),
		Servers:   icfg.Servers,
		Objects:   icfg.Objects,
		Seed:      icfg.Seed,
		OTC:       res.OTC,
		BaseOTC:   res.BaseOTC,
		Savings:   res.SavingsPercent,
		Replicas:  res.Replicas,
		RuntimeMS: float64(res.Runtime.Microseconds()) / 1e3,
		Work:      res.Work,
	}
	if res.Method == repro.AGTRAM {
		out.Engine = engine
		out.Rounds = res.Rounds
		for _, p := range res.Payments {
			if p > 0 {
				out.Winners++
				out.Payments += p
			}
		}
	}
	for _, ev := range res.Evictions {
		out.Evictions = append(out.Evictions, struct {
			Agent  int    `json:"agent"`
			Round  int    `json:"round"`
			Reason string `json:"reason"`
		}{ev.Agent, ev.Round, ev.Reason})
	}
	return out
}

func main() {
	inst := cliflags.AddInstance(flag.CommandLine)
	eng := cliflags.AddEngine(flag.CommandLine)
	prof := cliflags.AddProfile(flag.CommandLine)
	var (
		method  = flag.String("method", "agt-ram", "method: agt-ram|greedy|gra|ae-star|da|ea|glauber")
		all     = flag.Bool("all", false, "run every method and print a comparison table")
		report  = flag.String("report", "", "write the solved placement as a JSON report to this file")
		timeout = flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
		asJSON  = flag.Bool("json", false, "emit the result as JSON on stdout")
	)
	flag.Parse()

	if !*all && !repro.KnownMethod(repro.Method(*method)) {
		fatal(fmt.Errorf("unknown -method %q (want %s)", *method, methodList()))
	}
	engineSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "engine" {
			engineSet = true
		}
	})
	if engineSet && repro.Method(*method) != repro.AGTRAM {
		fatal(fmt.Errorf("-engine only applies to -method agt-ram (got -method %s)", *method))
	}
	faults, err := eng.Validate()
	if err != nil {
		fatal(err)
	}
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()
	icfg := inst.Config()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *all {
		runAll(ctx, icfg, eng.Workers, icfg.Seed, *asJSON)
		return
	}

	in, err := repro.NewInstance(icfg)
	if err != nil {
		fatal(err)
	}
	opts := &repro.Options{
		Workers:       eng.Workers,
		Seed:          icfg.Seed,
		Sync:          eng.Engine == "sync",
		Distributed:   eng.Engine == "distributed",
		Network:       eng.Engine == "network",
		RoundTimeout:  eng.RoundTimeout,
		GlauberSweeps: eng.GlauberSweeps,
		Faults:        faults,
	}
	if eng.Engine == "tcp" {
		opts.TCPAddr = "127.0.0.1:0"
	}
	res, err := in.SolveContext(ctx, repro.Method(*method), opts)
	if err != nil {
		fatal(err)
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteReport(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(toJSONResult(icfg, eng.Engine, res)); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("instance: M=%d N=%d requests=%d R/W=%.2f C=%.0f%% topology=%s oracle=%s seed=%d\n",
		icfg.Servers, icfg.Objects, icfg.Requests, icfg.RWRatio, icfg.CapacityPercent, icfg.Topology, in.OracleKind(), icfg.Seed)
	fmt.Printf("method:   %s", repro.MethodLabel(res.Method))
	if res.Method == repro.AGTRAM {
		fmt.Printf(" (%s engine)", eng.Engine)
	}
	fmt.Println()
	fmt.Printf("base OTC: %d\n", res.BaseOTC)
	fmt.Printf("OTC:      %d\n", res.OTC)
	fmt.Printf("savings:  %.2f%%\n", res.SavingsPercent)
	fmt.Printf("replicas: %d\n", res.Replicas)
	fmt.Printf("runtime:  %s\n", res.Runtime.Round(time.Microsecond))
	fmt.Printf("work:     %d operations\n", res.Work)
	if *report != "" {
		fmt.Printf("report:   %s\n", *report)
	}
	if res.Method == repro.AGTRAM {
		fmt.Printf("rounds:   %d\n", res.Rounds)
		var paid int64
		winners := 0
		for _, p := range res.Payments {
			if p > 0 {
				winners++
				paid += p
			}
		}
		fmt.Printf("payments: %d units across %d winning servers\n", paid, winners)
	}
	for _, ev := range res.Evictions {
		if ev.Round == 0 {
			fmt.Printf("evicted:  agent %d before the game (%s)\n", ev.Agent, ev.Reason)
		} else {
			fmt.Printf("evicted:  agent %d in round %d (%s)\n", ev.Agent, ev.Round, ev.Reason)
		}
	}
}

func runAll(ctx context.Context, icfg repro.InstanceConfig, workers int, seed int64, asJSON bool) {
	var results []jsonResult
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if !asJSON {
		fmt.Fprintln(tw, "method\tsavings %\treplicas\truntime\twork")
	}
	for _, m := range repro.Methods() {
		in, err := repro.NewInstance(icfg)
		if err != nil {
			fatal(err)
		}
		res, err := in.SolveContext(ctx, m, &repro.Options{Workers: workers, Seed: seed})
		if err != nil {
			fatal(err)
		}
		if asJSON {
			results = append(results, toJSONResult(icfg, "", res))
			continue
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%s\t%d\n",
			repro.MethodLabel(m), res.SavingsPercent, res.Replicas,
			res.Runtime.Round(time.Millisecond), res.Work)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
		return
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
}

func methodList() string {
	names := make([]string, 0, len(repro.Methods()))
	for _, m := range repro.Methods() {
		names = append(names, string(m))
	}
	return strings.Join(names, "|")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "agtram:", err)
	os.Exit(1)
}
