package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Record is one run as prbench -json prints it: a line per workload.
type Record struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Correct  bool                  `json:"correct"`
	Digest   Digest                `json:"digest"`
	Metrics  map[string]RecordItem `json:"metrics"`
}

// RecordItem is one metric value in a Record.
type RecordItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// NewRecord converts a Result to its JSON line form.
func NewRecord(r *Result) Record {
	rec := Record{Workload: r.Workload, Seed: r.Seed, Correct: r.Correct(), Digest: r.Digest,
		Metrics: map[string]RecordItem{}}
	for _, m := range r.Metrics {
		rec.Metrics[m.Name] = RecordItem{Value: m.Value, Unit: m.Unit}
	}
	return rec
}

// ReadRecords reads a JSON-lines file of Records, in order, skipping
// lines that are not records (such as prbench's closing summary line).
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readRecords(f)
}

func readRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec Record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" {
			continue
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// Spec is the part of BENCHMARK.json the comparator reads.
type Spec struct {
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric declared in BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // worst tolerated change, as a share of the base median
}

// ReadSpec reads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdict labels one (workload, metric) pairing of two sets of runs.
type Verdict struct {
	Workload, Metric string
	Pairs, Wins      int
	Base, Head       [3]float64 // q1, median, q3
	Label            string     // faster, slower, within-noise or unresolved
	Why              string
}

// minPairs is the fewest base/head pairs a verdict other than
// unresolved rests on.
const minPairs = 10

// Compare applies the pair rule to every end-to-end metric of every
// workload present in both sets. The i-th base run pairs with the i-th
// head run, so alternate the two sides when collecting them.
//
//   - slower: the head median is worse than the base median by more than
//     the metric's bound.
//   - faster: the head wins at least 9 of every 10 pairs and its median
//     is better by more than the base runs' interquartile range.
//   - unresolved: fewer than 10 pairs, or the base runs' spread is wider
//     than the bound, unless every head run beats every base run.
//   - within-noise: otherwise.
func Compare(base, head []Record, spec *Spec) []Verdict {
	group := func(recs []Record) map[string][]Record {
		m := map[string][]Record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, hw := group(base), group(head)
	var names []string
	for w := range bw {
		if _, ok := hw[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []Verdict
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			b, h := values(bw[w], m.Name), values(hw[w], m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			out = append(out, judge(w, m, b, h))
		}
	}
	return out
}

func values(recs []Record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if it, ok := r.Metrics[metric]; ok {
			out = append(out, it.Value)
		}
	}
	return out
}

func judge(workload string, m SpecMetric, b, h []float64) Verdict {
	v := Verdict{Workload: workload, Metric: m.Name}
	v.Pairs = len(b)
	if len(h) < v.Pairs {
		v.Pairs = len(h)
	}
	v.Base[0], v.Base[1], v.Base[2] = Quartiles(b)
	v.Head[0], v.Head[1], v.Head[2] = Quartiles(h)
	dir := 1.0
	if m.Better == "lower" {
		dir = -1
	}
	for i := 0; i < v.Pairs; i++ {
		if (h[i]-b[i])*dir > 0 {
			v.Wins++
		}
	}
	gain := (v.Head[1] - v.Base[1]) * dir // > 0: head better
	iqr := v.Base[2] - v.Base[0]
	scale := math.Abs(v.Base[1])
	allBetter := true
	for _, x := range h {
		for _, y := range b {
			if (x-y)*dir <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.Pairs < minPairs:
		v.Label, v.Why = "unresolved", fmt.Sprintf("%d pairs, need %d", v.Pairs, minPairs)
	case -gain > m.Bound*scale:
		v.Label, v.Why = "slower", fmt.Sprintf("median worse by %.1f%%, bound %.1f%%", -gain/scale*100, m.Bound*100)
	case v.Wins*10 >= 9*v.Pairs && gain > iqr:
		v.Label, v.Why = "faster", fmt.Sprintf("won %d/%d pairs, gap %.3g > base IQR %.3g", v.Wins, v.Pairs, gain, iqr)
	case iqr > m.Bound*scale && !allBetter:
		v.Label, v.Why = "unresolved", fmt.Sprintf("base IQR %.1f%% of median exceeds bound %.1f%%", iqr/scale*100, m.Bound*100)
	default:
		v.Label, v.Why = "within-noise", fmt.Sprintf("won %d/%d pairs, median change %+.1f%%", v.Wins, v.Pairs, gain/scale*100)
	}
	return v
}
