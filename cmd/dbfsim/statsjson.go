package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// -stats-json: machine-readable output. One JSON object on stdout per
// invocation, nothing else — the human-readable report moves aside so a
// pipeline can `dbfsim ... -stats-json | jq .cells_computed` without
// scraping prose.

// deltaStatsJSON is the -mode delta output shape.
type deltaStatsJSON struct {
	Mode          string `json:"mode"`
	Steps         int    `json:"steps"`
	Horizon       int    `json:"horizon"`
	RowsComputed  int    `json:"rows_computed"`
	RowsSkipped   int    `json:"rows_skipped"`
	CellsComputed int    `json:"cells_computed"`
	Converged     bool   `json:"converged"`
	ConvergedAt   int    `json:"converged_at"` // -1 when not certified
	Stable        bool   `json:"stable"`
}

// simStatsJSON is the -mode sim output shape.
type simStatsJSON struct {
	Mode        string `json:"mode"`
	EndTime     int64  `json:"end_time"`
	Sent        int    `json:"sent"`
	Delivered   int    `json:"delivered"`
	Dropped     int    `json:"dropped"`
	Duplicated  int    `json:"duplicated"`
	Activations int    `json:"activations"`
	Converged   bool   `json:"converged"`
	ConvergedAt int64  `json:"converged_at"` // -1 when not converged
	Stable      bool   `json:"stable"`
}

// scenarioStatsJSON is the -scenario output shape: the watchdog verdict
// of every substrate played.
type scenarioStatsJSON struct {
	Mode       string                 `json:"mode"`
	Scenario   string                 `json:"scenario"`
	Events     int                    `json:"events"`
	Horizon    int                    `json:"horizon"`
	Substrates []substrateVerdictJSON `json:"substrates"`
}

type substrateVerdictJSON struct {
	Substrate   string `json:"substrate"`
	Verdict     string `json:"verdict"`
	Converged   bool   `json:"converged"`
	Stable      bool   `json:"stable"`
	ReferenceOK *bool  `json:"reference_ok,omitempty"` // engine only
	Period      int    `json:"period,omitempty"`       // oscillating only
	Rounds      int    `json:"rounds"`
	Detail      string `json:"detail"`
	*engineDigestJSON
}

// engineDigestJSON is the engine run's digest, the four fields -server
// prints for the same scenario text.
type engineDigestJSON struct {
	Steps       int    `json:"steps"`
	ConvergedAt int    `json:"converged_at"` // -1 when not certified
	Cells       int    `json:"cells"`
	Hash        string `json:"hash"`
}

// infof prints an informational progress line — to stdout normally, to
// stderr under -stats-json so stdout stays exactly one JSON object.
func (o *options) infof(format string, args ...any) {
	w := o.stdout
	if o.statsJSON {
		w = o.stderr
	}
	fmt.Fprintf(w, format, args...)
}

// emitJSON writes v as the invocation's one JSON object; an error has
// been reported on stderr.
func (o *options) emitJSON(v any) error {
	err := json.NewEncoder(o.stdout).Encode(v)
	if err != nil {
		fmt.Fprintln(o.stderr, err)
	}
	return err
}

func deltaJSON(st engine.Stats, horizon int, stable bool) deltaStatsJSON {
	return deltaStatsJSON{
		Mode: "delta", Steps: st.Steps, Horizon: horizon,
		RowsComputed: st.RowsComputed, RowsSkipped: st.RowsSkipped, CellsComputed: st.CellsComputed,
		Converged: st.ConvergedAt >= 0, ConvergedAt: st.ConvergedAt, Stable: stable,
	}
}

func scenarioJSON(rep *scenario.Report) scenarioStatsJSON {
	out := scenarioStatsJSON{
		Mode: "scenario", Scenario: rep.Scenario.Name,
		Events: len(rep.Scenario.Events), Horizon: rep.Scenario.Horizon,
	}
	for _, sr := range rep.Substrates {
		v := substrateVerdictJSON{
			Substrate: sr.Substrate, Verdict: sr.Class.Verdict.String(),
			Converged: sr.Converged, Stable: sr.Stable,
			Period: sr.Class.Period, Rounds: sr.Class.Rounds, Detail: sr.Class.Detail,
		}
		if sr.Substrate == scenario.SubEngine {
			ok := sr.ReferenceOK
			v.ReferenceOK = &ok
			v.engineDigestJSON = &engineDigestJSON{
				Steps: sr.Steps, ConvergedAt: sr.ConvergedAt, Cells: sr.Cells,
				Hash: fmt.Sprintf("%016x", sr.Hash),
			}
		}
		out.Substrates = append(out.Substrates, v)
	}
	return out
}
