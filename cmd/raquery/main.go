// Command raquery evaluates relational-algebra, semijoin-algebra and
// guarded-fragment queries over databases in the library's text format.
//
// Usage:
//
//	raquery -db data.txt -ra  'diff(project[1](R), ...)'
//	raquery -db data.txt -sa  'semijoin[2=1](Visits, Serves)'
//	raquery -db data.txt -gf  'exists y (Visits(x, y) & x = y)' -vars x
//	raquery -db data.txt -ra '...' -trace        # print intermediate sizes
//	raquery -db data.txt -ra '...' -optimize     # run the rewrite planner
//	raquery -db data.txt -ra '...' -explain      # print plan + cost estimates
//	raquery -db data.txt -ra '...' -timeout 5s   # governed: wall-clock budget
//	raquery -db data.txt -ra '...' -max-resident 100000  # tuple budget
//
// Plain -ra and -sa queries run on the materialized evaluator, whose
// -trace reports each subexpression's set cardinality. -optimize and
// -explain compile the query with the planner and run it on the
// streaming batch executor, whose -trace reports per-operator flow
// counts. With -timeout or -max-resident an -ra or -sa query runs
// through the governed streaming batch executor (planned or not):
// exceeding either budget aborts the query cleanly (typed error on
// stderr, exit 1) instead of running away, and -trace reports flows.
//
// The database format is line oriented: "@R 2" declares relation R of
// arity 2 and "R 1,2" adds the tuple (1,2); see internal/rel.ReadText.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"radiv/internal/exec"
	"radiv/internal/gf"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "raquery:", err)
		os.Exit(1)
	}
}

// run parses the flags and executes one query; separated from main for
// testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("raquery", flag.ContinueOnError)
	dbPath := fs.String("db", "", "database file (text format)")
	raSrc := fs.String("ra", "", "relational algebra expression")
	saSrc := fs.String("sa", "", "semijoin algebra expression")
	gfSrc := fs.String("gf", "", "guarded fragment formula")
	vars := fs.String("vars", "", "comma-separated output variables for -gf")
	consts := fs.String("consts", "", "comma-separated extra constants for -gf answers")
	trace := fs.Bool("trace", false, "print intermediate result sizes")
	optimize := fs.Bool("optimize", false, "run the rewrite planner over the -ra expression")
	explain := fs.Bool("explain", false, "print the compiled -ra plan with cost estimates")
	timeout := fs.Duration("timeout", 0, "abort the query after this wall-clock duration (0 = none)")
	maxResident := fs.Int("max-resident", 0, "abort the query past this resident-tuple budget (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dbPath == "" {
		return fmt.Errorf("missing -db")
	}
	f, err := os.Open(*dbPath)
	if err != nil {
		return err
	}
	d, err := rel.ReadText(f)
	f.Close()
	if err != nil {
		return err
	}

	if (*optimize || *explain) && *raSrc == "" {
		return fmt.Errorf("-optimize and -explain apply to -ra queries only")
	}

	// Budgets route the query through the governed executor: a timeout
	// cancels the context mid-flight, a resident cap aborts on budget.
	governed := *timeout > 0 || *maxResident > 0
	lim := exec.Limits{MaxResident: *maxResident}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *rel.Relation
	var tr *ra.Trace
	switch {
	case *raSrc != "":
		e, err := parser.ParseRA(*raSrc, d.Schema())
		if err != nil {
			return err
		}
		switch {
		case *optimize || *explain:
			// The planner path: compile (optionally rewriting), explain,
			// and execute through whichever engine the plan bound.
			p, err := plan.Compile(e, d, plan.Options{Optimize: *optimize, Limits: lim})
			if err != nil {
				return err
			}
			if *explain {
				fmt.Fprint(out, p.Explain())
			}
			if governed {
				res, tr, err = p.ExecuteTracedContext(ctx)
			} else {
				res, tr = p.ExecuteTraced()
			}
			if err != nil {
				return err
			}
		case governed:
			if err := exec.Do(ctx, lim, func(g *exec.Governor) { res, tr = ra.EvalVectorized(g, e, d, 0) }); err != nil {
				return err
			}
		default:
			res, tr = ra.EvalTraced(e, d)
		}
	case *saSrc != "":
		e, err := parser.ParseSA(*saSrc, d.Schema())
		if err != nil {
			return err
		}
		if governed {
			if err := exec.Do(ctx, lim, func(g *exec.Governor) { res, tr = sa.EvalVectorized(g, e, d, 0) }); err != nil {
				return err
			}
		} else {
			res, tr = sa.EvalTraced(e, d)
		}
	case *gfSrc != "":
		if governed {
			return fmt.Errorf("-timeout and -max-resident apply to -ra and -sa queries only")
		}
		formula, err := parser.ParseGF(*gfSrc)
		if err != nil {
			return err
		}
		if err := gf.Validate(formula, d.Schema()); err != nil {
			return err
		}
		var vlist []gf.Var
		if *vars != "" {
			for _, v := range strings.Split(*vars, ",") {
				vlist = append(vlist, gf.Var(strings.TrimSpace(v)))
			}
		} else {
			vlist = formula.FreeVars()
		}
		var cs []rel.Value
		if *consts != "" {
			for _, c := range strings.Split(*consts, ",") {
				cs = append(cs, rel.ParseValue(strings.TrimSpace(c)))
			}
		}
		c := gf.Constants(formula).Union(rel.Consts(cs...))
		fmt.Fprint(out, gf.Answers(formula, d, c, vlist))
		return nil
	default:
		return fmt.Errorf("provide one of -ra, -sa, -gf")
	}
	if *trace {
		fmt.Fprint(out, tr)
	}
	fmt.Fprint(out, res)
	return nil
}
