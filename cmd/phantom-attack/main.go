// Command phantom-attack runs one Table III proof-of-concept case
// end-to-end, printing the outcome without and with the attack. It exits
// nonzero when the attack fails.
//
// Usage:
//
//	phantom-attack [-seed N] [-trace] <case-number 1..11>
//	phantom-attack -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phantom-attack:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("phantom-attack", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "deterministic seed")
	list := fs.Bool("list", false, "list the PoC cases and exit")
	trace := fs.Bool("trace", false, "stream every TLS record crossing the hijacked bridges")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cases := experiment.Table3Cases()
	if *list {
		for _, c := range cases {
			cond := c.Condition
			if cond == "" {
				cond = "-"
			}
			fmt.Printf("Case %-3d %-20s trigger=%q condition=%q action=%q\n      consequence: %s\n",
				c.ID, c.Type, c.Trigger, cond, c.Action, c.Consequence)
		}
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected a case number 1..11 (try -list)")
	}
	n, err := strconv.Atoi(fs.Arg(0))
	if err != nil || n < 1 || n > len(cases) {
		return fmt.Errorf("case number must be 1..%d", len(cases))
	}
	c := cases[n-1]
	if *trace {
		c.Trace = os.Stdout
	}

	fmt.Printf("Case %d (%s)\n", c.ID, c.Type)
	fmt.Printf("  rule:        when %q", c.Trigger)
	if c.Condition != "" {
		fmt.Printf(", if %q", c.Condition)
	}
	fmt.Printf(", then %q\n", c.Action)
	fmt.Printf("  devices:     %v (hijacked: %v)\n", c.Devices, c.Hijacks)
	fmt.Printf("  consequence: %s\n\n", c.Consequence)

	return report(experiment.RunCases([]experiment.Case{c}, *seed+int64(n)*997)[0])
}

// report prints a case's outcome without and with the attack, then the
// verdict. A failed attack is an error, so the exit status tells it.
func report(r experiment.CaseResult) error {
	if r.Err != nil {
		return r.Err
	}
	fmt.Printf("without attack: %s\n", r.BaselineDetail)
	fmt.Printf("with attack:    %s (server-side alarms: %d)\n", r.AttackDetail, r.AttackAlarms)
	if !r.Succeeded() {
		fmt.Println("\nresult: attack FAILED")
		return fmt.Errorf("case %d: attack failed", r.Case.ID)
	}
	fmt.Println("\nresult: attack succeeded, silently")
	return nil
}
