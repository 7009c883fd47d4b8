package main

import (
	"errors"
	"math"
	"sort"

	"repro/internal/client"
)

// outcome classifies one attempted operation. Every class but okOp counts
// as a failure in error_rate.
type outcome int

const (
	okOp             outcome = iota
	refused                  // the server turned the request away (4xx, or 429/503 with no retry)
	retriesExhausted         // every retry of a 429/503/transport failure failed
	opError                  // transport failure, server error, or a job that did not finish done
	wrongResult              // finished, but its result differs from the reference
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "refused", "retries_exhausted", "error", "wrong_result"}

func (o outcome) String() string { return outcomeNames[o] }

// classifyRequest maps a client call's error onto an outcome. The client
// already retried temporary rejections, so a *client.RetryError means the
// retries ran out; a bare *client.StatusError is a refusal the client would
// not retry (or a server error).
func classifyRequest(err error) outcome {
	var re *client.RetryError
	var se *client.StatusError
	switch {
	case err == nil:
		return okOp
	case errors.As(err, &re):
		return retriesExhausted
	case errors.As(err, &se) && se.Code < 500:
		return refused
	case errors.As(err, &se) && se.Temporary():
		return refused
	default:
		return opError
	}
}

// tally counts attempted operations and their failures by class.
type tally struct {
	attempted int
	by        [numOutcomes]int
}

func (t *tally) add(o outcome) {
	t.attempted++
	t.by[o]++
}

// merge adds o's operations to t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	for i, n := range o.by {
		t.by[i] += n
	}
}

// failed is the number of attempted operations that did not succeed.
func (t *tally) failed() int { return t.attempted - t.by[okOp] }

// errorRate is failed operations over attempted ones (0 when none were).
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs; xs
// need not be sorted and is not modified. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value of xs, the mean of the two middle values for
// an even count, and NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the percentiles a tail is reported at, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile is the highest of tailPercentiles that leaves at least ten
// of n samples beyond it, or 0 when even p90 would not.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}
