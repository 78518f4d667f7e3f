package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatMain runs n fresh child processes of this benchmark per
// workload, each untraced with its own seed (seed, seed+1, ...), and
// prints the median and quartiles of every end-to-end metric with the
// quartile spread as a share of the median. A spread above the metric's
// bound in BENCHMARK.json is flagged "over", one above a third of it
// "wide". It returns the process exit code: nonzero when a child failed
// or a gated spread is over its bound.
func repeatMain(n int, only string, seed int64, seconds int, benchPath string) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", benchPath, err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := cat.names()
	if only != "" {
		names = []string{only}
	}
	code := 0
	for _, wl := range names {
		spec, ok := cat.workload(wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", wl)
			return 2
		}
		base := seed
		if base == 0 {
			base = spec.Seed
		}
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := strconv.FormatInt(base+int64(i), 10)
			cmd := exec.Command(exe, "-workload", wl, "-seed", s, "-seconds", strconv.Itoa(seconds), "-trace", "0")
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %s failed: %v %v\n", wl, s, err, perr)
				code = 1
				continue
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %s ok\n", wl, s)
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		fmt.Printf("%-16s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range def.EndToEnd {
			v := vals[m.Name]
			if len(v) < 2 {
				continue
			}
			q1, med, q3 := quartiles(v)
			spread := (q3 - q1) / med
			flag := ""
			switch {
			case spread > m.Bound:
				flag = "over"
				if m.Name != "setup_s" {
					code = 1
				}
			case spread > m.Bound/3:
				flag = "wide"
			}
			fmt.Printf("%-16s %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n", wl, m.Name, med, q1, q3, 100*spread, 100*m.Bound, flag)
		}
	}
	return code
}

type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// lastResult decodes the result object on the last line of a run's
// standard output.
func lastResult(out []byte) (runResult, error) {
	var res runResult
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

// quartiles returns the first quartile, median and third quartile of v
// as Python's statistics.quantiles(v, n=4) computes them (the
// "exclusive" method).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
