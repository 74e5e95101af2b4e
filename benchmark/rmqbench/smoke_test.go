package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	testSpec      = "../../BENCHMARK.json"
	testReference = "../testdata/reference.json"
)

// TestSmokeWorkloads runs every workload at smoke scale, untraced and
// traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json names for its mode.
func TestSmokeWorkloads(t *testing.T) {
	spec, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark has %d", names, len(workloads))
	}
	for _, name := range names {
		for _, trace := range []int{0, 1} {
			o := options{workload: name, seed: 1, seconds: 0.4, trace: trace, scale: "smoke",
				reference: testReference, traceDir: t.TempDir()}
			r, err := runWorkload(o, name)
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			if !r.Correct || r.Failed > 0 || r.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed: %v", name, trace, r.Correct, r.Failed, r.Attempted, r.Violations)
			}
			if _, err := contractLine(r, spec); err != nil {
				t.Errorf("%s trace %d: %v", name, trace, err)
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(o.traceDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}

// TestStaleReferenceRefused checks that a reference whose catalog no
// longer fingerprint-matches the generator is refused, not used.
func TestStaleReferenceRefused(t *testing.T) {
	if _, err := loadReference(testReference, refCatalogs); err != nil {
		t.Fatalf("committed reference: %v", err)
	}
	data, err := os.ReadFile(testReference)
	if err != nil {
		t.Fatal(err)
	}
	var f referenceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	f.Catalogs[0].Seed++ // the stored fingerprint now names another catalog
	if data, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReference(path, 1); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale reference loaded, err = %v", err)
	}
}
