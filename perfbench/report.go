package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"fairjob/internal/cluster"
	"fairjob/internal/topk"
)

// metric is one reported number. n is its sample count, printed beside
// it in the human-readable table.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is the run's verdict and metrics. printed holds numbers shown
// in the table but left out of the JSON line.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	printed   []metric
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

func (r *result) show(name string, value float64, unit string, n int) {
	r.printed = append(r.printed, metric{Name: name, Value: value, Unit: unit, N: n})
}

// printTable writes every metric by name, value, unit and sample count.
func (r *result) printTable(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %-9s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range r.printed {
		fmt.Fprintf(w, "  %-34s %14.6g %-9s n=%d (not in the JSON line)\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// printJSON writes the one-line result object.
func (r *result) printJSON(w io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		v := m.Value
		switch {
		case math.IsNaN(v):
			return fmt.Errorf("metric %s is not a number", m.Name)
		case math.IsInf(v, 1):
			// A failed request's latency: it missed every limit.
			v = math.MaxFloat64
		}
		ms[m.Name] = val{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place):
// the smallest value with at least q·n values at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func secs(d time.Duration) float64 { return d.Seconds() }

func algoName(a topk.Algorithm) string { return strings.ToLower(a.String()) }

func opName(op int) string { return cluster.Op(op).String() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
