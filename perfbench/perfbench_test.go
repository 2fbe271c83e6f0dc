package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range spec.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range spec.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a
// smoke-test size under a second seed, and checks that the last output
// line is a correct result carrying exactly the declared metrics.
func TestWorkloadsTiny(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"search", "serve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w, "--seed", "2", "--seconds", "0.3",
					"--trace", trace, "--tiny", "--dir", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("missing metric %s", name)
						continue
					}
					if got.Unit != unit {
						t.Errorf("%s: unit %q, want %q", name, got.Unit, unit)
					}
					if trace == "0" && got.Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", name)
					}
				}
			})
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	// Ten samples (21..30) lie beyond the 20th smallest.
	if got := tail(xs); got != 20 {
		t.Errorf("tail of 1..30 = %v, want 20", got)
	}
	if got := tail(xs[:5]); got != 5 {
		t.Errorf("tail of 1..5 = %v, want the maximum 5", got)
	}
}

// TestSameSearchDetectsDrift checks that the fidelity check rejects an
// instrumented solve whose effort differs from the engine's in any counter.
func TestSameSearchDetectsDrift(t *testing.T) {
	want := &core.Result{Length: 10, Optimal: true, Stats: core.Stats{Expanded: 5, Generated: 9, MaxOpen: 4}}
	same := *want
	if err := sameSearch(want, &same); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	for name, mutate := range map[string]func(*core.Result){
		"expanded": func(r *core.Result) { r.Stats.Expanded++ },
		"max open": func(r *core.Result) { r.Stats.MaxOpen++ },
		"pruned":   func(r *core.Result) { r.Stats.PrunedFTO++ },
		"length":   func(r *core.Result) { r.Length++ },
		"optimal":  func(r *core.Result) { r.Optimal = false },
	} {
		got := *want
		mutate(&got)
		if sameSearch(want, &got) == nil {
			t.Errorf("%s drift not detected", name)
		}
	}
}
