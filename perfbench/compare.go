package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compareCmd compares two sets of run records, base and head: two
// record files, or two directories whose records pair up by file name
// (workload, seed and trace mode). It refuses unless every pair timed
// the same inputs. Per workload and end-to-end metric it prints each
// side's median and quartiles over the pairs, the ratio of the medians,
// and how many pairs the head won.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <base.json|base-dir> <head.json|head-dir>")
		return 2
	}
	pairs, err := loadPairs(args[0], args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, p := range pairs {
		if err := comparable(p[0], p[1]); err != nil {
			fmt.Fprintf(stderr, "perfbench: refusing to compare %s seed %d: %v\n", p[0].Workload, p[0].Seed, err)
			return 1
		}
	}
	byWorkload := map[string][][2]*record{}
	var order []string
	for _, p := range pairs {
		w := p[0].Workload
		if byWorkload[w] == nil {
			order = append(order, w)
		}
		byWorkload[w] = append(byWorkload[w], p)
	}
	for _, w := range order {
		printComparison(stdout, w, byWorkload[w])
	}
	return 0
}

func printComparison(w io.Writer, workload string, pairs [][2]*record) {
	fmt.Fprintf(w, "%s: %d pairs\n%-20s %32s %32s %9s %6s\n", workload, len(pairs),
		"metric", "base median [q1, q3]", "head median [q1, q3]", "head/base", "wins")
	for _, m := range endToEnd {
		var base, head []float64
		wins := 0
		for _, p := range pairs {
			b, h := p[0].Metrics[m.name].Value, p[1].Metrics[m.name].Value
			base, head = append(base, b), append(head, h)
			if (m.higherBetter && h > b) || (!m.higherBetter && h < b) {
				wins++
			}
		}
		fmt.Fprintf(w, "%-20s %32s %32s %9.3f %3d/%d\n", m.name,
			spreadText(base), spreadText(head), median(head)/median(base), wins, len(pairs))
	}
}

func spreadText(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

// loadPairs reads base and head records: one file each, or every
// record in the base directory with the same-named one in the head
// directory.
func loadPairs(base, head string) ([][2]*record, error) {
	st, err := os.Stat(base)
	if err != nil {
		return nil, err
	}
	names := []string{""}
	if st.IsDir() {
		if names, err = filepath.Glob(filepath.Join(base, "*.json")); err != nil {
			return nil, err
		}
		for i := range names {
			names[i] = filepath.Base(names[i])
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("no records in %s", base)
		}
	}
	var pairs [][2]*record
	for _, n := range names {
		var p [2]*record
		for i, path := range []string{filepath.Join(base, n), filepath.Join(head, n)} {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			p[i] = &record{}
			if err := json.Unmarshal(data, p[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// comparable reports why two records must not be compared, if they
// must not.
func comparable(a, b *record) error {
	switch {
	case a.Workload != b.Workload:
		return fmt.Errorf("workloads differ: %s vs %s", a.Workload, b.Workload)
	case a.Fingerprint != b.Fingerprint:
		return fmt.Errorf("input fingerprints differ: %.12s vs %.12s", a.Fingerprint, b.Fingerprint)
	}
	return nil
}
