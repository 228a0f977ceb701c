// Command compare sets two sets of benchmark runs side by side: for each
// workload and end-to-end metric it prints each side's median and
// quartiles and a verdict, where A is the parent and B the change.
//
//	go run ./compare [-bench ../BENCHMARK.json] A B
//
// A and B are directories of run outputs named <workload>-<seed>.out, as
// runs.sh writes them; the last line of each is the run's JSON result.
// Runs of the two sides with the same workload and seed form a pair.
//
// The verdict follows the rule for claiming a change in a small sandbox:
// "gain" when B wins at least nine tenths of the pairs (ties count for
// neither) and the medians differ by more than the spread of A's own runs
// (the distance between its quartiles); "worse" when B's median is worse
// than A's by more than the metric's bound; "unresolved" when A's spread
// is wider than the bound and not every run of B beats every run of A;
// otherwise "same".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// set maps workload -> seed -> result.
type set map[string]map[int]runResult

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark definition (metrics, directions, bounds)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] A B")
		os.Exit(2)
	}
	if err := run(*bench, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(benchPath, dirA, dirB string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := load(dirA)
	if err != nil {
		return err
	}
	b, err := load(dirB)
	if err != nil {
		return err
	}
	var workloads []string
	for w := range a {
		if _, ok := b[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	fmt.Printf("%-14s %-13s %-5s %-31s %-31s %-7s %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, w := range workloads {
		fmt.Printf("%-14s failed/attempted A %s, B %s\n", w, failShare(a[w]), failShare(b[w]))
		for _, m := range bf.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Printf("%-14s %-13s %-5s fewer than two runs on a side\n", w, m.Name, m.Unit)
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			wins, pairs := pairWins(a[w], b[w], m.Name, m.Better == "higher")
			fmt.Printf("%-14s %-13s %-5s %-31s %-31s %-7s %s\n", w, m.Name, m.Unit,
				fmtQ(qa), fmtQ(qb), fmt.Sprintf("%d/%d", wins, pairs),
				verdict(va, vb, qa, qb, wins, pairs, m.Better == "higher", m.Bound))
		}
	}
	return nil
}

// load reads every <workload>-<seed>.out in dir.
func load(dir string) (set, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	s := set{}
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".out")
		i := strings.LastIndex(base, "-")
		if i < 0 {
			continue
		}
		seed, err := strconv.Atoi(base[i+1:])
		if err != nil {
			continue
		}
		res, err := lastLine(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: skipping %s: %v\n", p, err)
			continue
		}
		w := base[:i]
		if s[w] == nil {
			s[w] = map[int]runResult{}
		}
		s[w][seed] = res
	}
	return s, nil
}

func lastLine(path string) (runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return runResult{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return runResult{}, err
	}
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return runResult{}, fmt.Errorf("last line is not a result: %w", err)
	}
	if !r.Correct {
		return runResult{}, fmt.Errorf("run reported correct=false")
	}
	return r, nil
}

func values(runs map[int]runResult, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	sort.Float64s(vs)
	return vs
}

func failShare(runs map[int]runResult) string {
	var f, a uint64
	for _, r := range runs {
		f += r.Failed
		a += r.Attempted
	}
	return fmt.Sprintf("%d/%d", f, a)
}

// quartiles returns q1, median, q3 as Python's
// statistics.quantiles(vs, n=4) (the exclusive method) computes them. vs
// is sorted and holds at least two values.
func quartiles(vs []float64) [3]float64 {
	n := len(vs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (vs[j-1]*float64(4-delta) + vs[j]*float64(delta)) / 4
	}
	return q
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// pairWins counts the seeds where B beats A, ties counting for neither.
func pairWins(a, b map[int]runResult, metric string, higher bool) (wins, pairs int) {
	for seed, ra := range a {
		rb, ok := b[seed]
		if !ok {
			continue
		}
		x, okA := ra.Metrics[metric]
		y, okB := rb.Metrics[metric]
		if !okA || !okB {
			continue
		}
		pairs++
		if (higher && y.Value > x.Value) || (!higher && y.Value < x.Value) {
			wins++
		}
	}
	return wins, pairs
}

func verdict(va, vb []float64, qa, qb [3]float64, wins, pairs int, higher bool, bound float64) string {
	medA, medB := qa[1], qb[1]
	better := medB > medA
	if !higher {
		better = medB < medA
	}
	worseBy := (medA - medB) / medA
	if !higher {
		worseBy = (medB - medA) / medA
	}
	spreadA := qa[2] - qa[0]
	allBetter := (higher && vb[0] > va[len(va)-1]) || (!higher && vb[len(vb)-1] < va[0])
	switch {
	case better && pairs > 0 && 10*wins >= 9*pairs && abs(medB-medA) > spreadA:
		return "gain"
	case worseBy > bound:
		return fmt.Sprintf("worse (%.1f%% > bound %.0f%%)", 100*worseBy, 100*bound)
	case spreadA/medA > bound && !allBetter:
		return fmt.Sprintf("unresolved (A spread %.1f%% > bound)", 100*spreadA/medA)
	default:
		return "same"
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
