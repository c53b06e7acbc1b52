// Command tmql is an interactive shell (and one-shot runner) for TM queries
// over the built-in sample databases. It shows results, logical plans, and
// lets you switch unnesting strategies to compare the paper's techniques.
//
// Usage:
//
//	tmql                           # REPL over the company database
//	tmql -db xyz                   # REPL over the synthetic X/Y/Z database
//	tmql -q 'SELECT d.name FROM DEPT d'
//	tmql -q '...' -strategy naive -explain
//	tmql -q '...' -pin rewrite     (pin the §6-rewritten alternative)
//	tmql -q '...' -pin 'order:((z y) x)'
//	tmql -plancache 64             (bound the LRU plan cache)
//
// Under the auto strategy the optimizer already enumerates the §6 rewrites
// and join orders as costed candidates, so no pin is needed to benefit from
// them. -pin pins one alternative by the label shown in EXPLAIN's candidate
// table, under the auto strategy or a pinned one alike.
//
// REPL commands:
//
//	explain <query>                (physical plan, estimated rows/cost,
//	                                candidate table: strategy × alternative
//	                                × join family)
//	\strategy auto|naive|nestjoin|kim|outerjoin
//	\joins auto|nl|hash|merge|index
//	\pin <label>|off              (pin a logical alternative by label:
//	                               base | rewrite | order:…)
//	\access auto|scan|index       (access path for selections: auto lets the
//	                               optimizer weigh index scans, index pins
//	                               them, scan pins full scans)
//	\timeout <dur>|off            (per-query wall-clock deadline, e.g.
//	                               \timeout 500ms — queries that outlive it
//	                               fail with deadline exceeded; bare \timeout
//	                               shows the current setting)
//	\budget rows <n>|bytes <n>|off (per-query resource budgets: result rows
//	                               produced, approximate hash/sort build
//	                               bytes; breaches fail the query with budget
//	                               exceeded; bare \budget shows the current
//	                               settings)
//	\cache                        (plan-cache statistics incl. evictions and
//	                               per-table index/drop invalidations; \cache clear
//	                               drops it, \cache cap <n> bounds the LRU)
//	\explain <query>               (alias of explain)
//	\analyze                       (bring table statistics up to date and
//	                                show them; only mutated tables rescan)
//	\insert <table> <tuple-expr>   (add a tuple to a table in place; cached
//	                                plans stay valid, and its statistics —
//	                                only its — are recollected once a tenth
//	                                of the table has changed, or by \analyze)
//	\delete <table> <var> WHERE <pred>
//	\index <table> <attr> [attr…]  (create a persistent hash index — several
//	                                attributes build a composite index whose
//	                                prefixes are probeable; idxjoin and
//	                                idxscan candidates then compete in
//	                                planning — \index alone lists indexes)
//	\tables
//	\quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
)

func main() {
	var (
		dbName   = flag.String("db", "company", "sample database: company | xyz | table1 | rs")
		query    = flag.String("q", "", "run one query and exit")
		strategy = flag.String("strategy", "auto", "auto | naive | nestjoin | kim | outerjoin")
		joins    = flag.String("joins", "auto", "auto | nl | hash | merge | index")
		access   = flag.String("access", "auto", "auto | scan | index (access path for selections)")
		pin      = flag.String("pin", "", "pin a logical alternative by candidate-table label (base | rewrite | order:…)")
		cacheCap = flag.Int("plancache", 0, "plan-cache LRU capacity (0 = default 256)")
		explain  = flag.Bool("explain", false, "print the physical plan with cost estimates instead of executing")
		timeout  = flag.Duration("timeout", 0, "per-query wall-clock deadline (0 = none)")
		maxRows  = flag.Int64("max-rows", 0, "per-query result-row budget (0 = unlimited)")
		maxBuild = flag.Int64("max-build-bytes", 0, "per-query hash/sort build-byte budget (0 = unlimited)")
	)
	flag.Parse()

	eng, err := openDB(*dbName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	eng.SetPlanCacheCapacity(*cacheCap)
	opts, err := makeOptions(*strategy, *joins)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts.Access, err = parseAccess(*access)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts.PinAlt = *pin
	opts.Limits = engine.Limits{Timeout: *timeout, MaxRows: *maxRows, MaxBuildBytes: *maxBuild}

	if *query != "" {
		if err := runOne(eng, *query, opts, *explain); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	repl(eng, opts)
}

func openDB(name string) (*engine.Engine, error) {
	switch name {
	case "company":
		cat, db := datagen.Company(8, 60, 1)
		return engine.New(cat, db), nil
	case "xyz":
		cat, db := datagen.XYZ(datagen.Spec{
			NX: 100, NY: 300, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1,
		})
		return engine.New(cat, db), nil
	case "table1":
		cat, db := datagen.Table1()
		return engine.New(cat, db), nil
	case "rs":
		cat, db := datagen.RS(100, 300, 20, 0.3, 1)
		return engine.New(cat, db), nil
	}
	return nil, fmt.Errorf("unknown database %q (company | xyz | table1 | rs)", name)
}

func makeOptions(strategy, joins string) (engine.Options, error) {
	var opts engine.Options
	s, err := core.ParseStrategy(strategy)
	if err != nil {
		return opts, fmt.Errorf("unknown strategy %q", strategy)
	}
	opts.Strategy = s
	switch joins {
	case "auto":
		opts.Joins = planner.ImplAuto
	case "nl":
		opts.Joins = planner.ImplNestedLoop
	case "hash":
		opts.Joins = planner.ImplHash
	case "merge":
		opts.Joins = planner.ImplMerge
	case "index", "idx":
		opts.Joins = planner.ImplIndex
	default:
		return opts, fmt.Errorf("unknown join impl %q", joins)
	}
	return opts, nil
}

// parseAccess maps the -access / \access argument to an access path.
func parseAccess(s string) (planner.AccessPath, error) {
	switch s {
	case "auto":
		return planner.AccessAuto, nil
	case "scan":
		return planner.AccessScan, nil
	case "index", "idx", "idxscan":
		return planner.AccessIndex, nil
	}
	return planner.AccessAuto, fmt.Errorf("unknown access path %q (auto | scan | index)", s)
}

func runOne(eng *engine.Engine, q string, opts engine.Options, explain bool) error {
	if explain {
		plan, err := eng.Explain(q, opts)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	res, err := eng.Query(q, opts)
	if err != nil {
		return err
	}
	for _, row := range res.Value.Elems() {
		fmt.Println(row)
	}
	how := res.Strategy.String()
	if res.Auto {
		how = fmt.Sprintf("auto: %s/%s × %s, cost≈%.0f", res.Strategy, res.Alt, res.Joins, res.Cost.Work)
	} else if res.Alt != "" && res.Alt != "base" {
		how += "/" + res.Alt
	}
	if res.Access == planner.AccessIndex {
		how += ", idxscan"
	}
	if res.CacheHit {
		how += ", plan cached"
	}
	fmt.Printf("-- %d rows in %v (strategy %s, %d eval steps)\n",
		res.Value.Len(), res.Duration, how, res.EvalSteps)
	return nil
}

// budgetStr renders a budget value, 0 meaning unlimited.
func budgetStr(n int64) string {
	if n == 0 {
		return "off"
	}
	return strconv.FormatInt(n, 10)
}

// analyze collects statistics for every table and prints them.
func analyze(eng *engine.Engine) {
	sc := eng.Analyze()
	for _, name := range sc.Names() {
		ts := sc.Table(name)
		fmt.Printf("%-8s %6d rows\n", name, ts.Card)
		attrs := make([]string, 0, len(ts.Distinct))
		for a := range ts.Distinct {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, attr := range attrs {
			line := fmt.Sprintf("  .%-10s %6d distinct", attr, ts.Distinct[attr])
			if avg, ok := ts.AvgSetLen[attr]; ok {
				line += fmt.Sprintf("   avg set len %.2f", avg)
			}
			fmt.Println(line)
		}
	}
}

func repl(eng *engine.Engine, opts engine.Options) {
	fmt.Println("tmql — nested-query optimization shell (EDBT'94 reproduction)")
	fmt.Printf("strategy=%s; explain <q>, \\strategy, \\joins, \\pin, \\timeout, \\budget, \\cache, \\analyze, \\insert, \\delete, \\index, \\tables, \\quit\n", opts.Strategy)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("tmql> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == "\\quit" || line == "\\q":
			return
		case line == "\\tables":
			for _, n := range eng.DB().Names() {
				tab, _ := eng.DB().Table(n)
				et, _ := eng.Catalog().ElementType(n)
				fmt.Printf("%-8s %6d rows   %s\n", n, tab.Len(), et)
			}
		case strings.HasPrefix(line, "\\strategy "):
			o, err := makeOptions(strings.TrimSpace(strings.TrimPrefix(line, "\\strategy ")), "auto")
			if err != nil {
				fmt.Println(err)
				continue
			}
			opts.Strategy = o.Strategy
			fmt.Printf("strategy = %s\n", opts.Strategy)
		case strings.HasPrefix(line, "\\joins "):
			o, err := makeOptions("nestjoin", strings.TrimSpace(strings.TrimPrefix(line, "\\joins ")))
			if err != nil {
				fmt.Println(err)
				continue
			}
			opts.Joins = o.Joins
			fmt.Println("join impl updated")
		case line == "\\access":
			fmt.Printf("access path = %s (\\access auto|scan|index to change)\n", opts.Access)
		case strings.HasPrefix(line, "\\access "):
			a, err := parseAccess(strings.TrimSpace(strings.TrimPrefix(line, "\\access ")))
			if err != nil {
				fmt.Println(err)
				continue
			}
			opts.Access = a
			fmt.Printf("access path = %s\n", a)
		case line == "\\timeout":
			if opts.Limits.Timeout == 0 {
				fmt.Println("timeout = off (\\timeout <dur>|off to change, e.g. \\timeout 500ms)")
			} else {
				fmt.Printf("timeout = %s\n", opts.Limits.Timeout)
			}
		case strings.HasPrefix(line, "\\timeout "):
			arg := strings.TrimSpace(strings.TrimPrefix(line, "\\timeout "))
			if arg == "off" {
				opts.Limits.Timeout = 0
				fmt.Println("timeout removed")
				continue
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				fmt.Println("usage: \\timeout <dur>|off   e.g. \\timeout 500ms")
				continue
			}
			opts.Limits.Timeout = d
			fmt.Printf("timeout = %s\n", d)
		case line == "\\budget":
			fmt.Printf("budget: rows = %s, build bytes = %s (\\budget rows <n>|bytes <n>|off)\n",
				budgetStr(opts.Limits.MaxRows), budgetStr(opts.Limits.MaxBuildBytes))
		case strings.HasPrefix(line, "\\budget "):
			args := strings.Fields(strings.TrimPrefix(line, "\\budget "))
			switch {
			case len(args) == 1 && args[0] == "off":
				opts.Limits.MaxRows, opts.Limits.MaxBuildBytes = 0, 0
				fmt.Println("budgets removed")
			case len(args) == 2 && (args[0] == "rows" || args[0] == "bytes"):
				n, err := strconv.ParseInt(args[1], 10, 64)
				if err != nil || n < 0 {
					fmt.Println("usage: \\budget rows <n> | bytes <n> | off  (0 = unlimited)")
					continue
				}
				if args[0] == "rows" {
					opts.Limits.MaxRows = n
				} else {
					opts.Limits.MaxBuildBytes = n
				}
				fmt.Printf("budget: rows = %s, build bytes = %s\n",
					budgetStr(opts.Limits.MaxRows), budgetStr(opts.Limits.MaxBuildBytes))
			default:
				fmt.Println("usage: \\budget rows <n> | bytes <n> | off  (0 = unlimited)")
			}
		case strings.HasPrefix(line, "\\pin "):
			label := strings.TrimSpace(strings.TrimPrefix(line, "\\pin "))
			if label == "off" {
				opts.PinAlt = ""
				fmt.Println("alternative pin removed")
			} else {
				opts.PinAlt = label
				fmt.Printf("pinned logical alternative %q\n", label)
			}
		case line == "\\cache":
			fmt.Println(eng.PlanCacheStats())
		case line == "\\cache clear":
			eng.ClearPlanCache()
			fmt.Println("plan cache cleared")
		case strings.HasPrefix(line, "\\cache cap "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "\\cache cap ")))
			if err != nil {
				fmt.Println("usage: \\cache cap <n>  (n <= 0 restores the default)")
				continue
			}
			eng.SetPlanCacheCapacity(n)
			fmt.Println(eng.PlanCacheStats())
		case line == "\\analyze":
			analyze(eng)
		case strings.HasPrefix(line, "\\insert "):
			args := strings.SplitN(strings.TrimSpace(strings.TrimPrefix(line, "\\insert ")), " ", 2)
			if len(args) != 2 {
				fmt.Println("usage: \\insert <table> <tuple-expr>   e.g. \\insert X (a = {1, 2}, b = 7)")
				continue
			}
			added, err := eng.Insert(args[0], args[1])
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case added:
				fmt.Printf("inserted into %s\n", args[0])
			default:
				fmt.Printf("already present in %s (set semantics)\n", args[0])
			}
		case strings.HasPrefix(line, "\\delete "):
			// \delete <table> <var> WHERE <pred>
			rest := strings.TrimSpace(strings.TrimPrefix(line, "\\delete "))
			args := strings.SplitN(rest, " ", 3)
			var pred string
			if len(args) == 3 {
				clause := strings.TrimSpace(args[2])
				if w := strings.SplitN(clause, " ", 2); len(w) == 2 && strings.EqualFold(w[0], "WHERE") {
					pred = strings.TrimSpace(w[1])
				}
			}
			if pred == "" {
				fmt.Println("usage: \\delete <table> <var> WHERE <pred>   e.g. \\delete X x WHERE x.b < 0")
				continue
			}
			n, err := eng.Delete(args[0], args[1], pred)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("deleted %d tuples from %s\n", n, args[0])
		case line == "\\index":
			for _, name := range eng.DB().Names() {
				tab, _ := eng.DB().Table(name)
				for _, attrs := range tab.Indexes() {
					if ix, ok := tab.IndexOn(attrs); ok {
						fmt.Printf("%s(%s): %d keys, %d rows\n", name, ix.Name(), ix.Keys(), ix.Len())
					}
				}
			}
		case strings.HasPrefix(line, "\\index "):
			args := strings.Fields(strings.ReplaceAll(strings.TrimPrefix(line, "\\index "), ",", " "))
			if len(args) < 2 {
				fmt.Println("usage: \\index <table> <attr> [attr…]  (\\index alone lists indexes)")
				continue
			}
			table, attrs := args[0], args[1:]
			if err := eng.CreateIndex(table, attrs...); err != nil {
				fmt.Println("error:", err)
				continue
			}
			kind := "idxjoin/idxscan candidates now compete in planning"
			if len(attrs) > 1 {
				kind = "composite index; every prefix is probeable — " + kind
			}
			fmt.Printf("index created on %s(%s); %s\n", table, strings.Join(attrs, ","), kind)
		case strings.HasPrefix(line, "\\explain "), strings.HasPrefix(line, "explain "):
			q := strings.TrimPrefix(strings.TrimPrefix(line, "\\explain "), "explain ")
			if err := runOne(eng, q, opts, true); err != nil {
				fmt.Println("error:", err)
			}
		default:
			if err := runOne(eng, line, opts, false); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}
