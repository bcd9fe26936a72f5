package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"

	"bundler/internal/scenario"
)

// runSpread runs one workload k times, each in a fresh process with its
// own seed (seed, seed+1, ...), and prints every metric's median and
// interquartile range as a share of the median — the figures the
// benchmark's bounds are set and justified from.
func runSpread(workload string, seed int64, seconds, trace, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w\n%s", s, err, out)
		}
		var o outcome
		if err := json.Unmarshal(lastLine(out), &o); err != nil {
			return fmt.Errorf("seed %d: parse result: %w", s, err)
		}
		if !o.Correct {
			return fmt.Errorf("seed %d: run reported incorrect output", s)
		}
		for name, m := range o.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "spread: %s seed %d done\n", workload, s)
	}
	summary := make(map[string]map[string]any)
	fmt.Printf("%-34s %14s %10s  (%s, %d runs)\n", "metric", "median", "iqr/med", workload, k)
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		rel := (q3 - q1) / q2
		fmt.Printf("%-34s %14.6g %10.4f  %s\n", name, q2, rel, units[name])
		summary[name] = map[string]any{"median": q2, "iqr_over_median": rel, "values": values[name]}
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"host": stamp(root, seed), "workload": workload, "runs": k, "spread": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// genDigests regenerates the expected-digest table for seeds from..to.
// Each mesh digest is taken only once the run passed its misroute and
// completion checks; each sweep digest once the warm resume reproduced
// the cold pass byte for byte.
func genDigests(root string, from, to int64) error {
	table, err := readDigests(root)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if table[w.Name] == nil {
			table[w.Name] = make(map[string]string)
		}
	}
	e, g, err := loadSweep(sweepGrid)
	if err != nil {
		return err
	}
	for seed := from; seed <= to; seed++ {
		key := fmt.Sprint(seed)
		m := meshOptions(seed, meshSites, meshHorizon, 0)
		mesh := scenario.NewMesh(m)
		mesh.Run()
		if _, err := meshCheck(mesh); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		table["mesh-hub"][key] = digest(canonical(meshResult(mesh)))

		g.Seeds = []int64{seed}
		r := &runner{root: root}
		dir := r.storeDir(int(seed))
		sp, err := runSweepPass(e, g, dir, runtime.NumCPU())
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		table["sched-sweep"][key] = digest(sp.out)
		fmt.Fprintf(os.Stderr, "digests: seed %d done\n", seed)
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath(root), append(b, '\n'), 0o644)
}
