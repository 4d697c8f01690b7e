package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/model"
	"repro/internal/plot"
)

// ToSeries converts a figure's lines into plot series.
func (f Figure) ToSeries() []plot.Series {
	out := make([]plot.Series, 0, len(f.Lines))
	for _, l := range f.Lines {
		s := plot.Series{Label: l.Label}
		for _, p := range l.Points {
			s.X = append(s.X, float64(p.Nodes))
			s.Y = append(s.Y, p.Seconds)
		}
		out = append(out, s)
	}
	return out
}

// Render draws the figure as an ASCII chart, like the paper's
// execution-time-vs-nodes plots.
func (f Figure) Render(width, height int) string {
	return plot.ASCII(fmt.Sprintf("Figure %d. %s", f.ID, f.Title), "nodes", "execution time (s)", f.ToSeries(), width, height)
}

// CSV emits the figure's data.
func (f Figure) CSV() string {
	return plot.CSV("nodes", f.ToSeries())
}

// Claim is one quantitative statement from §4.3, checked against the
// regenerated figures.
type Claim struct {
	Name   string
	Detail string
	Pass   bool
}

// CheckClaims evaluates the paper's §4.3 observations against a full set
// of regenerated figures (indexed 1-5 in paper order).
func CheckClaims(figs []Figure) []Claim {
	byID := map[int]Figure{}
	for _, f := range figs {
		byID[f.ID] = f
	}
	myr := model.Myrinet200().Name
	sci := model.SCI450().Name
	var claims []Claim

	// Claim: the two protocols perform essentially identically for Pi.
	if f, ok := byID[1]; ok {
		worst := 0.0
		for _, cl := range []string{myr, sci} {
			if v, ok := f.MeanImprovement(cl); ok && absf(v) > worst {
				worst = absf(v)
			}
		}
		claims = append(claims, Claim{
			Name:   "pi-identical",
			Detail: fmt.Sprintf("Pi protocols within %.1f%% (paper: essentially identical)", worst*100),
			Pass:   worst < 0.05,
		})
	}

	// Claim: java_pf consistently outperforms java_ic for the other
	// applications, on both clusters. TSP's branch-and-bound search size
	// varies a few percent with thread scheduling (it does on the real
	// system too), so points are allowed a small noise margin.
	const noise = -0.03
	allWin := true
	var worstCase string
	for id := 2; id <= 5; id++ {
		f, ok := byID[id]
		if !ok {
			continue
		}
		for _, cl := range []string{myr, sci} {
			for _, n := range nodeCountsOf(f, cl) {
				if v, ok := f.Improvement(cl, n); ok && v < noise {
					allWin = false
					worstCase = fmt.Sprintf("fig %d on %s x%d: %.1f%%", id, cl, n, v*100)
				}
			}
		}
	}
	claims = append(claims, Claim{
		Name:   "pf-superior",
		Detail: "java_pf <= java_ic for Jacobi/Barnes/TSP/ASP on both clusters" + optionally(worstCase),
		Pass:   allWin,
	})

	// Claim: Myrinet improvements range roughly from Jacobi's 38% to
	// ASP's 64%; check ordering and bands.
	if f2, ok2 := byID[2]; ok2 {
		if f5, ok5 := byID[5]; ok5 {
			j, _ := f2.MeanImprovement(myr)
			a, _ := f5.MeanImprovement(myr)
			claims = append(claims, Claim{
				Name:   "myrinet-range",
				Detail: fmt.Sprintf("Myrinet mean improvement: jacobi %.0f%% (paper 38%%), asp %.0f%% (paper 64%%)", j*100, a*100),
				Pass:   j > 0.20 && j < 0.55 && a > 0.45 && a < 0.80 && a > j,
			})
		}
	}

	// Claim: Barnes' improvement decreases as nodes grow (46% -> 28% on
	// Myrinet from 1 to 12 nodes).
	if f3, ok := byID[3]; ok {
		lo, okLo := f3.Improvement(myr, 1)
		hi, okHi := f3.Improvement(myr, 12)
		claims = append(claims, Claim{
			Name:   "barnes-decline",
			Detail: fmt.Sprintf("Barnes Myrinet improvement declines %.0f%% (1 node) -> %.0f%% (12 nodes); paper 46%% -> 28%%", lo*100, hi*100),
			Pass:   okLo && okHi && lo > hi && lo > 0.30 && hi < lo-0.08,
		})
	}

	// Claim: the SCI cluster's average improvement is smaller (~21%).
	var sciSum float64
	var sciN int
	var myrSum float64
	var myrN int
	for id := 2; id <= 5; id++ {
		if f, ok := byID[id]; ok {
			if v, ok := f.MeanImprovement(sci); ok {
				sciSum += v
				sciN++
			}
			if v, ok := f.MeanImprovement(myr); ok {
				myrSum += v
				myrN++
			}
		}
	}
	if sciN > 0 && myrN > 0 {
		sciAvg := sciSum / float64(sciN)
		myrAvg := myrSum / float64(myrN)
		claims = append(claims, Claim{
			Name:   "sci-smaller",
			Detail: fmt.Sprintf("mean improvement: SCI %.0f%% (paper ~21%%) vs Myrinet %.0f%%", sciAvg*100, myrAvg*100),
			Pass:   sciAvg < myrAvg && sciAvg > 0.05 && sciAvg < 0.40,
		})
	}
	return claims
}

// ReportClaims renders the claim table.
func ReportClaims(claims []Claim) string {
	var b strings.Builder
	b.WriteString("§4.3 claims vs this reproduction:\n")
	for _, c := range claims {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-16s %s\n", status, c.Name, c.Detail)
	}
	return b.String()
}

// Report writes the evaluation report of a set of regenerated figures:
// each chart (at one fixed size, 72x20), the mean-improvement table and
// the §4.3 claims. It returns an error naming the claims that failed,
// so a command that prints the report exits non-zero on them and a CI
// step can gate on the paper's result.
func Report(w io.Writer, figs []Figure) error {
	for _, f := range figs {
		fmt.Fprintln(w, f.Render(72, 20))
	}
	fmt.Fprintln(w, ImprovementTable(figs))
	claims := CheckClaims(figs)
	fmt.Fprintln(w, ReportClaims(claims))
	var failed []string
	for _, c := range claims {
		if !c.Pass {
			failed = append(failed, c.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("harness: %d of %d §4.3 claims failed: %s", len(failed), len(claims), strings.Join(failed, ", "))
	}
	return nil
}

// ImprovementTable renders per-figure improvements for both clusters.
func ImprovementTable(figs []Figure) string {
	var b strings.Builder
	myr := model.Myrinet200().Name
	sci := model.SCI450().Name
	fmt.Fprintf(&b, "%-8s %-22s %-22s\n", "figure", myr+" mean impr", sci+" mean impr")
	for _, f := range figs {
		row := fmt.Sprintf("fig %d", f.ID)
		m := "n/a"
		if v, ok := f.MeanImprovement(myr); ok {
			m = fmt.Sprintf("%.1f%%", v*100)
		}
		s := "n/a"
		if v, ok := f.MeanImprovement(sci); ok {
			s = fmt.Sprintf("%.1f%%", v*100)
		}
		fmt.Fprintf(&b, "%-8s %-22s %-22s\n", row, m, s)
	}
	return b.String()
}

func nodeCountsOf(f Figure, clusterName string) []int {
	seen := map[int]bool{}
	var out []int
	for _, l := range f.Lines {
		for _, p := range l.Points {
			if p.Result.Cluster == clusterName && !seen[p.Nodes] {
				seen[p.Nodes] = true
				out = append(out, p.Nodes)
			}
		}
	}
	return out
}

func optionally(s string) string {
	if s == "" {
		return ""
	}
	return " (worst: " + s + ")"
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
