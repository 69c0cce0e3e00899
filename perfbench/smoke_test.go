package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny scale for a few seconds, untraced
// and traced, through the built binaries, and checks that every metric
// BENCHMARK.json names prints with its unit, that no answer was wrong or
// failed, and that the layer self times add up to the traced time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tssserve and boots real servers")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	server := filepath.Join(dir, "tssserve")
	bench := filepath.Join(dir, "perfbench")
	for _, b := range [][]string{{"-o", server, "../cmd/tssserve"}, {"-o", bench, "."}} {
		cmd := exec.Command("go", append([]string{"build"}, b...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace="+traced, func(t *testing.T) {
				cmd := exec.Command(bench, "-server", server, "-work", dir, "--workload", wl.Name,
					"--seed", "7", "--seconds", "3", "--trace", traced, "--scale", "0.05")
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("run: %v\n%s\n%s", err, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d (error_rate must be 0)\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.String())
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !strings.Contains(stdout.String(), m.Name+" "):
						t.Errorf("metric %s not printed on its own line", m.Name)
					}
				}
				if traced == "1" {
					if gap := rep.Metrics["trace.self_time_gap_ratio"].Value; math.Abs(gap) > selfGapTolerance {
						t.Errorf("layer self times differ from the traced time by %.4f (tolerance %.2f)", gap, selfGapTolerance)
					}
				} else if rep.Metrics["setup_s"].Value <= 0 {
					t.Errorf("setup_s = %v", rep.Metrics["setup_s"].Value)
				}
			})
		}
	}
}
