//go:build goexperiment.synctest

package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/synctest"
)

// TestSynctestDistIsAFunctionOfItsSeed runs every example scenario on the
// live network (dist) three times inside a synctest bubble, where every
// timer, ticker and clock read is synthetic and time advances only when
// every goroutine of the network is blocked. Under the real clock the
// stop point of a run that never converges (countinfinity,
// badgadget-churn) is wall-clock, so its final table differs from run to
// run; in the bubble the report and the final table must be one.
//
// Run it with GOEXPERIMENT=synctest go test -run Synctest ./internal/scenario.
func TestSynctestDistIsAFunctionOfItsSeed(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.scenario")
	if err != nil || len(files) != 6 {
		t.Fatalf("want the six example scenarios, found %d (%v)", len(files), err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".scenario")
		t.Run(name, func(t *testing.T) {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var reports, tables []string
			for range 3 {
				synctest.Run(func() {
					sc, err := Parse(text)
					if err != nil {
						t.Error(err)
						return
					}
					rep, err := Run(sc, SubDist)
					if err != nil {
						t.Error(err)
						return
					}
					reports = append(reports, rep.String())
					tables = append(tables, rep.Substrates[0].FinalTable)
				})
			}
			if t.Failed() {
				return
			}
			for k := 1; k < len(reports); k++ {
				if reports[k] != reports[0] {
					t.Fatalf("run %d reported\n%s\nrun 1 reported\n%s", k+1, reports[k], reports[0])
				}
				if tables[k] != tables[0] {
					t.Fatalf("run %d ended on\n%s\nrun 1 ended on\n%s", k+1, tables[k], tables[0])
				}
			}
			if tables[0] == "" {
				t.Fatal("the run printed no final table")
			}
		})
	}
}
