package main

import (
	"errors"
	"math"
	"net/http"
	"testing"

	"repro/internal/client"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 1, 100, 7}, 7},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {250000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestClassifyRequest(t *testing.T) {
	busy := &client.StatusError{Code: http.StatusTooManyRequests}
	for _, c := range []struct {
		name string
		err  error
		want outcome
	}{
		{"success", nil, okOp},
		{"refused, bad request", &client.StatusError{Code: http.StatusBadRequest}, refused},
		{"refused, queue full with no retry", busy, refused},
		{"refused, shedding with no retry", &client.StatusError{Code: http.StatusServiceUnavailable}, refused},
		{"retried then failed", &client.RetryError{Attempts: 6, Err: busy}, retriesExhausted},
		{"retried transport failure", &client.RetryError{Attempts: 6, Err: errors.New("connection refused")}, retriesExhausted},
		{"server error", &client.StatusError{Code: http.StatusInternalServerError}, opError},
		{"transport failure", errors.New("connection reset"), opError},
	} {
		if got := classifyRequest(c.err); got != c.want {
			t.Errorf("%s: classified %v, want %v", c.name, got, c.want)
		}
	}
}

func TestErrorRateCountsEveryFailureClass(t *testing.T) {
	var tl tally
	for _, o := range []outcome{okOp, okOp, okOp, okOp, okOp, refused, retriesExhausted, opError, wrongResult, okOp} {
		tl.add(o)
	}
	if tl.attempted != 10 || tl.failed() != 4 {
		t.Fatalf("attempted %d failed %d, want 10 and 4", tl.attempted, tl.failed())
	}
	if got := tl.errorRate(); got != 0.4 {
		t.Errorf("error rate %v, want 0.4", got)
	}
	for _, o := range []outcome{refused, retriesExhausted, opError, wrongResult} {
		if tl.by[o] != 1 {
			t.Errorf("%v counted %d times, want 1", o, tl.by[o])
		}
	}
	var more tally
	more.add(wrongResult)
	tl.merge(&more)
	if tl.attempted != 11 || tl.failed() != 5 {
		t.Errorf("after merge: attempted %d failed %d, want 11 and 5", tl.attempted, tl.failed())
	}
	var none tally
	if none.errorRate() != 0 {
		t.Error("error rate of no operations is not 0")
	}
}
