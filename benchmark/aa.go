package main

import "fmt"

// compareAA prints, per end-to-end metric × workload, both passes' values,
// their relative difference and the bound, and reports whether every pair
// is inside its bound. fail_frac has no bound: any difference is outside
// (the attempted count itself varies with how many reps fit -seconds).
func compareAA(first, second map[string]result) bool {
	ok := true
	fmt.Printf("%-14s %-18s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloadNames {
		a, b := first[w], second[w]
		if a.Metrics == nil || b.Metrics == nil {
			fmt.Printf("%-14s missing from one of the passes\n", w)
			ok = false
			continue
		}
		for _, d := range endToEndDecls {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := (y - x) / x
			verdict := ""
			if diff > d.bound || -diff > d.bound {
				verdict, ok = "  OUTSIDE", false
			}
			fmt.Printf("%-14s %-18s %16.9g %16.9g %+8.3f%% %6.1f%%%s\n", w, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
		verdict := ""
		if a.Failed*b.Attempted != b.Failed*a.Attempted {
			verdict, ok = "  OUTSIDE", false
		}
		fmt.Printf("%-14s %-18s %14d/%d %14d/%d%s\n", w, "fail_frac", a.Failed, a.Attempted, b.Failed, b.Attempted, verdict)
	}
	return ok
}
