package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchFile is the part of ../BENCHMARK.json the smoke test checks
// against: the workload names and every metric's name and unit.
type benchFile struct {
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

func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, args := range [][]string{
		{"-C", "..", "build", "-o", filepath.Join(bin, "eccserve"), "./cmd/eccserve"},
		{"build", "-o", filepath.Join(bin, "perfbench-layers"), "./layers"},
	} {
		cmd := exec.Command("go", args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go %v: %v", args, err)
		}
	}
	return bin
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchFile
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
	}
}

// TestSmokeEveryWorkload runs each workload for two seconds against a
// real eccserve built from this tree, then one traced run, and checks
// that every metric BENCHMARK.json names prints with its unit and that
// every answer was right.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eccserve and runs it")
	}
	bin := buildBinaries(t)
	c := readBenchFile(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		res, err := run(w.Name, 1, 2, false, bin, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.Name, res.Metrics, c.EndToEnd)
	}
	res, err := run(c.Workloads[0].Name, 1, 2, true, bin, t.TempDir())
	if err != nil {
		t.Fatalf("traced %s: %v", c.Workloads[0].Name, err)
	}
	if !res.Correct {
		t.Errorf("traced run: correct=false, failed=%d", res.Failed)
	}
	checkMetrics(t, "traced", res.Metrics, c.PerLayer)
}
