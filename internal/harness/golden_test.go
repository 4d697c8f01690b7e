package harness

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/model"
)

// TestResultJSONGolden pins the bytes of harness.Result's JSON — what
// the sweep cache stores and /v1/results serves — for two fixed points.
// The files were generated at the commit before the counters moved into
// one store; a difference means cache entries changed and
// sweep.cacheKeyVersion must be bumped (regenerate from the "got"
// output).
func TestResultJSONGolden(t *testing.T) {
	for _, proto := range []string{"java_ic", "java_hlrc"} {
		res, err := Run(jacobi.New(32, 4), RunConfig{Cluster: model.Myrinet200(), Nodes: 4, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		want, err := os.ReadFile("testdata/jacobi32x4_myrinet4_" + proto + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: Result JSON changed:\n--- got\n%s--- want\n%s", proto, got, want)
		}
	}
}
