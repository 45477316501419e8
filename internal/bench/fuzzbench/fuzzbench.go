// Package fuzzbench measures the value of sanitizer-guided fuzzing: the
// executions-to-detection comparison between the guided engine
// (internal/fuzz, feedback from shadow-state coverage and the near-miss
// gradient) and the blind ablation (identical mutation operators, no
// feedback). The metric is the paper-style one for fuzzers — how many
// executions until the first bug of each class surfaces — aggregated
// over several independent campaigns per mode and summarized as the
// per-class blind/guided ratio and its geometric mean.
//
// Everything is seeded and billed on the virtual clock, so the report
// committed as BENCH_fuzz.json is byte-identical across runs, machines,
// and -parallel levels. `giantbench -exp fuzz -check` is the CI gate: it
// fails unless the guided engine detects every class in every campaign
// and the geomean ratio clears MinGeomean.
package fuzzbench

import (
	"fmt"
	"math"
	"sort"

	"giantsan/internal/fuzz"
	"giantsan/internal/texttable"
)

// MinGeomean is the CI gate's floor: the geometric-mean blind/guided
// executions-to-detection ratio Check demands.
const MinGeomean = 1.5

// CampaignRow summarizes one campaign.
type CampaignRow struct {
	Mode       string         `json:"mode"`
	SeedBase   int64          `json:"seed_base"`
	Executions int            `json:"executions"`
	VirtualNs  int64          `json:"virtual_ns"`
	Detected   map[string]int `json:"detected"`
	CorpusSize int            `json:"corpus_size"`
	Features   int            `json:"features"`
	NearMiss   int            `json:"near_miss_runs"`
	Noise      int            `json:"noise"`
}

// ClassRow aggregates one bug class across campaigns. Campaigns that
// never detected the class are censored at the budget (the true count is
// at least that), which only understates the guided engine's advantage.
type ClassRow struct {
	Class      string  `json:"class"`
	GuidedMean float64 `json:"guided_mean_execs"`
	BlindMean  float64 `json:"blind_mean_execs"`
	// Ratio is blind/guided mean executions-to-detection: >1 means the
	// feedback earns its keep.
	Ratio float64 `json:"ratio"`
	// GuidedCensored/BlindCensored count campaigns where the class was
	// never detected inside the budget.
	GuidedCensored int `json:"guided_censored"`
	BlindCensored  int `json:"blind_censored"`
}

// Report is the committed BENCH_fuzz.json schema.
type Report struct {
	Campaigns int `json:"campaigns_per_mode"`
	Budget    int `json:"budget"`
	Seeds     int `json:"seeds_per_campaign"`
	// Geomean is the geometric mean of the per-class ratios — the
	// headline guided-vs-blind number the CI gate checks.
	Geomean float64       `json:"geomean_ratio"`
	Classes []ClassRow    `json:"classes"`
	Runs    []CampaignRow `json:"runs"`
}

// Run executes `campaigns` campaign pairs (guided and blind) with
// matching seed bases and aggregates executions-to-detection. parallel
// is each campaign's worker bound (0 = GOMAXPROCS; any value yields the
// identical report).
func Run(campaigns, budget, parallel int) (*Report, error) {
	if campaigns <= 0 {
		campaigns = 5
	}
	if budget <= 0 {
		budget = 4000
	}
	const seeds = 8
	rep := &Report{Campaigns: campaigns, Budget: budget, Seeds: seeds}
	detected := map[fuzz.Mode][]map[string]int{}
	for _, mode := range []fuzz.Mode{fuzz.Guided, fuzz.Blind} {
		for i := 0; i < campaigns; i++ {
			r, err := fuzz.Run(fuzz.Config{
				Mode:     mode,
				SeedBase: int64(i) * 100,
				Seeds:    seeds,
				Budget:   budget,
				Batch:    32,
				Parallel: parallel,
			})
			if err != nil {
				return nil, fmt.Errorf("fuzzbench: %s campaign %d: %w", mode, i, err)
			}
			rep.Runs = append(rep.Runs, CampaignRow{
				Mode:       r.Mode,
				SeedBase:   r.SeedBase,
				Executions: r.Executions,
				VirtualNs:  r.VirtualNs,
				Detected:   r.Detected,
				CorpusSize: r.CorpusSize,
				Features:   r.Features,
				NearMiss:   r.NearMissRuns,
				Noise:      r.Noise,
			})
			detected[mode] = append(detected[mode], r.Detected)
		}
	}

	for _, cls := range fuzz.Classes() {
		row := ClassRow{Class: cls}
		mean := func(mode fuzz.Mode, censored *int) float64 {
			sum := 0
			for _, d := range detected[mode] {
				n := d[cls]
				if n == 0 {
					n = budget
					*censored++
				}
				sum += n
			}
			return float64(sum) / float64(campaigns)
		}
		row.GuidedMean = mean(fuzz.Guided, &row.GuidedCensored)
		row.BlindMean = mean(fuzz.Blind, &row.BlindCensored)
		row.Ratio = row.BlindMean / row.GuidedMean
		rep.Classes = append(rep.Classes, row)
	}
	geo := 1.0
	for _, row := range rep.Classes {
		geo *= row.Ratio
	}
	rep.Geomean = math.Pow(geo, 1/float64(len(rep.Classes)))
	return rep, nil
}

// Render formats the report: one row per bug class plus the campaign
// table.
func Render(rep *Report) string {
	tb := texttable.New("Class", "Guided execs", "Blind execs", "Ratio", "Censored (g/b)")
	for _, row := range rep.Classes {
		tb.Add(row.Class,
			fmt.Sprintf("%.1f", row.GuidedMean),
			fmt.Sprintf("%.1f", row.BlindMean),
			fmt.Sprintf("%.2fx", row.Ratio),
			fmt.Sprintf("%d/%d", row.GuidedCensored, row.BlindCensored))
	}
	out := tb.String()
	out += fmt.Sprintf("\ngeomean blind/guided executions-to-detection: %.2fx over %d campaigns/mode, budget %d\n\n",
		rep.Geomean, rep.Campaigns, rep.Budget)

	ct := texttable.New("Mode", "SeedBase", "Execs", "Detected", "Corpus", "Features", "NearMiss", "Noise")
	for _, r := range rep.Runs {
		var parts []string
		keys := make([]string, 0, len(r.Detected))
		for k := range r.Detected {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s@%d", k, r.Detected[k]))
		}
		det := ""
		for i, p := range parts {
			if i > 0 {
				det += " "
			}
			det += p
		}
		ct.Add(r.Mode, r.SeedBase, r.Executions, det, r.CorpusSize, r.Features, r.NearMiss, r.Noise)
	}
	return out + ct.String()
}

// Check is the CI gate: the guided engine must detect every class in
// every campaign (no guided censoring) and the geomean ratio must reach
// minGeomean.
func Check(rep *Report, minGeomean float64) error {
	for _, row := range rep.Classes {
		if row.GuidedCensored > 0 {
			return fmt.Errorf("fuzzbench: guided engine missed %s in %d/%d campaigns (budget %d)",
				row.Class, row.GuidedCensored, rep.Campaigns, rep.Budget)
		}
	}
	if rep.Geomean < minGeomean {
		return fmt.Errorf("fuzzbench: geomean blind/guided ratio %.2fx below the %.2fx floor",
			rep.Geomean, minGeomean)
	}
	return nil
}
