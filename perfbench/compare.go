package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// compareReports prints each metric of two reports side by side with
// the new/old ratio. It refuses reports whose run shapes differ: a
// number from another machine, another worker fan-out or another
// workload is not a before/after pair.
func compareReports(w io.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(old.Shape, cur.Shape) {
		a, _ := json.Marshal(old.Shape)
		b, _ := json.Marshal(cur.Shape)
		return fmt.Errorf("run shapes differ; refusing to compare\n  %s: %s\n  %s: %s", oldPath, a, newPath, b)
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		if _, ok := old.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (seed %d) -> %s (seed %d), workload %s\n", oldPath, old.Seed, newPath, cur.Seed, cur.Shape.Workload)
	for _, name := range names {
		a, b := old.Metrics[name], cur.Metrics[name]
		ratio := "-"
		if a.Value != 0 {
			ratio = fmt.Sprintf("%.3f", b.Value/a.Value)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %14.4f %8s  %s\n", name, a.Value, b.Value, ratio, b.Unit)
	}
	return nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
