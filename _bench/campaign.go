package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"rio"
)

// The campaign is fixed: the same seed and cell size on every run, so
// its deterministic counts can be checked against campaign_expected.json,
// which cmd/riocrash writes at -workers 1 (see README.md).
const (
	campaignSeed        = 1
	campaignRunsPerCell = 1
)

//go:embed campaign_expected.json
var campaignExpected []byte

// campaignReport is the deterministic part of a campaign's JSON report.
type campaignReport struct {
	Summary struct {
		Seed        uint64 `json:"seed"`
		RunsPerCell int    `json:"runs_per_cell"`
		Cells       int    `json:"cells"`
		Runs        int    `json:"runs"`
		Crashes     int    `json:"crashes"`
		Discarded   int    `json:"discarded"`
		Errors      int    `json:"errors"`
		Corrupted   int    `json:"corrupted"`
	} `json:"summary"`
	Cells []struct {
		System     string         `json:"system"`
		Fault      string         `json:"fault"`
		Crashes    int            `json:"crashes"`
		Discarded  int            `json:"discarded"`
		Corrupted  int            `json:"corrupted"`
		Checksum   int            `json:"checksum_flagged"`
		Protection int            `json:"protection_trapped"`
		Errors     int            `json:"errors"`
		Attempts   int            `json:"attempts"`
		ElapsedMs  float64        `json:"elapsed_ms"`
		ByKind     map[string]int `json:"by_kind"`
	} `json:"cells"`
	Table string `json:"table"`
}

// deterministic returns r with the host-time fields cleared.
func (r campaignReport) deterministic() campaignReport {
	cells := append(r.Cells[:0:0], r.Cells...)
	for i := range cells {
		cells[i].ElapsedMs = 0
	}
	r.Cells = cells
	return r
}

// campaignTotals accumulates what the timed campaigns measured.
type campaignTotals struct {
	runs, errors, discarded, speculative, campaigns int
	wall                                            time.Duration
	cpuPerRun                                       []float64 // CPU µs per executed run, per campaign
	cellRunUs                                       []float64 // mean run time of each cell of each campaign
	elapsedMs                                       float64
	attempts                                        int
}

// stats summarises the campaigns. The CPU cost is per executed crash-test
// run, the median over campaigns. Speculative runs (executed, then
// dropped because their cell filled first) count: they cost CPU, and how
// many there are depends on scheduling alone.
func (t campaignTotals) stats() phaseStats {
	return phaseStats{ops: t.runs, reads: len(t.cellRunUs), seconds: t.wall.Seconds(),
		opsPerS: float64(t.runs) / t.wall.Seconds(), cpuUsPerOp: median(t.cpuPerRun)}
}

// runCampaigns runs whole campaigns until d has passed (at least one),
// checking each against the expectation.
func runCampaigns(d time.Duration, want campaignReport, tr *tracer) (campaignTotals, error) {
	var t campaignTotals
	deadline := time.Now().Add(d)
	for t.campaigns == 0 || time.Now().Before(deadline) {
		sp := tr.begin("rio.RunCrashCampaign", -1, uint64(t.campaigns))
		begin, cpu0 := time.Now(), cpuNow()
		res, err := rio.RunCrashCampaign(rio.CampaignOptions{RunsPerCell: campaignRunsPerCell,
			Seed: campaignSeed, Workers: runtime.NumCPU()})
		t.wall += time.Since(begin)
		cpu := cpuNow() - cpu0
		tr.end(sp)
		if err != nil {
			return t, err
		}
		t.campaigns++
		sum := res.Summary()
		t.cpuPerRun = append(t.cpuPerRun, float64(cpu)/1e3/float64(sum.Runs+sum.SpeculativeRuns))
		t.runs += sum.Runs
		t.errors += sum.Errors
		t.discarded += sum.Discarded
		t.speculative += sum.SpeculativeRuns
		raw, err := res.JSON()
		if err != nil {
			return t, err
		}
		var got campaignReport
		if err := json.Unmarshal(raw, &got); err != nil {
			return t, fmt.Errorf("campaign report: %w", err)
		}
		for _, c := range got.Cells {
			t.elapsedMs += c.ElapsedMs
			t.attempts += c.Attempts
			if c.Attempts > 0 {
				t.cellRunUs = append(t.cellRunUs, c.ElapsedMs*1e3/float64(c.Attempts))
			}
		}
		if !reflect.DeepEqual(got.deterministic(), want) {
			return t, fmt.Errorf("campaign %d: counts differ from campaign_expected.json (%d runs, %d crashes, %d corrupted; want %d, %d, %d)",
				t.campaigns, got.Summary.Runs, got.Summary.Crashes, got.Summary.Corrupted,
				want.Summary.Runs, want.Summary.Crashes, want.Summary.Corrupted)
		}
	}
	return t, nil
}

func runCampaign(o *options, rep *report) error {
	var want campaignReport
	if err := json.Unmarshal(campaignExpected, &want); err != nil {
		return fmt.Errorf("campaign_expected.json: %w", err)
	}
	want = want.deterministic()
	if want.Summary.Seed != campaignSeed || want.Summary.RunsPerCell != campaignRunsPerCell || want.Summary.Errors != 0 {
		return fmt.Errorf("campaign_expected.json is for seed %d, %d runs per cell, with %d errors; want seed %d, %d, none",
			want.Summary.Seed, want.Summary.RunsPerCell, want.Summary.Errors, campaignSeed, campaignRunsPerCell)
	}

	// Set-up: boot an interpreted machine, which assembles the kernel
	// text every crash run executes.
	if _, err := rio.New(rio.Config{Interpreted: true, Seed: o.seed}); err != nil {
		return err
	}
	rep.setupDone(o)

	t, err := runCampaigns(o.phaseDuration(), want, nil)
	rep.attempted += uint64(t.runs)
	rep.failed += uint64(t.errors)
	if err != nil {
		return rep.fail(err)
	}
	rep.st = t.stats()
	sorted := append([]float64(nil), t.cellRunUs...)
	sort.Float64s(sorted)
	rep.st.p50, rep.st.p99 = quantile(sorted, 0.50), quantile(sorted, 0.99)
	rep.notes = append(rep.notes, fmt.Sprintf("%d campaigns of %d cells at %d run(s) per cell, seed %d, %d workers; counts match campaign_expected.json; %d speculative runs",
		t.campaigns, want.Summary.Cells, campaignRunsPerCell, campaignSeed, runtime.NumCPU(), t.speculative))

	if o.trace {
		tr := &tracer{base: o.base}
		tt, err := runCampaigns(o.phaseDuration(), want, tr)
		rep.attempted += uint64(tt.runs)
		rep.failed += uint64(tt.errors)
		if err != nil {
			return rep.fail(err)
		}
		tst := tt.stats()
		rep.tracedSt = &tst
		rep.clientSpans = append(rep.clientSpans, tr.spans)
		all := t
		all.runs += tt.runs
		all.discarded += tt.discarded
		all.speculative += tt.speculative
		all.elapsedMs += tt.elapsedMs
		all.attempts += tt.attempts
		rep.layer["crashtest.runs_per_s"] = rep.st.opsPerS
		rep.layer["crashtest.run_ms"] = all.elapsedMs / float64(all.attempts)
		rep.layer["crashtest.discard_ratio"] = float64(all.discarded) / float64(all.runs)
		rep.layer["crashtest.speculative_ratio"] = float64(all.speculative) / float64(all.runs+all.speculative)
	}
	return nil
}
