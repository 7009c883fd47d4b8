package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

// ReferenceChromeTrace is the encoding/json renderer WriteChromeTrace
// replaced, kept verbatim as the byte-identity oracle: events become
// chromeEvent structs with map-typed args and go through an indenting
// Encoder. It is exported only so the core sweep in chrome_sweep_test.go
// (package obs_test) can use it.
func ReferenceChromeTrace(c *Collector, w io.Writer) error {
	workers := 0
	for _, e := range c.events {
		if e.Worker >= workers {
			workers = e.Worker + 1
		}
	}
	for _, o := range c.workers {
		if o != nil && o.ID >= workers {
			workers = o.ID + 1
		}
	}
	evs := make([]chromeEvent, 0, len(c.events)+workers+1)
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "stackthreads-mp"},
	})
	for i := 0; i < workers; i++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", i)},
		})
	}
	for _, e := range c.events {
		ce := chromeEvent{Name: e.Name, Ts: e.Ts, Pid: 0, Tid: e.Worker}
		switch e.Kind {
		case 'X':
			ce.Ph = "X"
			ce.Dur = e.Dur
			if ce.Dur <= 0 {
				ce.Dur = 1 // zero-length spans are invisible; clamp to 1 cycle
			}
		case 'C':
			ce.Ph = "C"
		default:
			ce.Ph = "i"
			ce.S = "t"
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]any, len(e.Args))
			for _, a := range e.Args {
				ce.Args[a.K] = a.V
			}
		}
		evs = append(evs, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		Meta: chromeMeta{
			Tool:  "stackthreads-mp obs",
			Note:  "deterministic virtual-time run",
			Cycle: "1 virtual cycle = 1us of trace time",
		},
	})
}

// checkAgainstReference renders c with both renderers and fails on the
// first differing byte; the output must also be valid JSON.
func checkAgainstReference(t *testing.T, c *Collector) {
	t.Helper()
	var got, want bytes.Buffer
	if err := c.WriteChromeTrace(&got); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ReferenceChromeTrace(c, &want); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("trace differs from reference at byte %d (len %d vs %d)\n got: %q\nwant: %q",
			i, len(g), len(w), g[lo:min(len(g), i+60)], w[lo:min(len(w), i+60)])
	}
	if !json.Valid(got.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", got.Bytes())
	}
}

// awkward holds strings that exercise every quoting rule: HTML-escaped
// bytes, quotes and backslashes, the short and \u00XX control escapes,
// invalid UTF-8, the JSONP line separators, DEL and valid multibyte text.
var awkward = []string{
	"<script>&amp;</script>",
	`say "hi"`,
	`back\slash`,
	"\x00\x01\x07\x1f\x7f",
	"\b\f\n\r\t",
	"bad\xffutf8\xc3",
	"\xed\xa0\x80", // an encoded surrogate is invalid UTF-8 too
	"line\u2028para\u2029end",
	"\u00b5s \u65e5\u672c \U0001F642",
	"",
}

func TestChromeTraceMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		build func(c *Collector)
	}{
		{"empty collector", func(c *Collector) {}},
		{"workers without events", func(c *Collector) {
			c.Worker(0)
			c.Worker(3)
		}},
		{"idle worker beyond events", func(c *Collector) {
			c.Instant(1, 0, "steal", Arg{K: "victim", V: 1})
			c.Worker(4)
		}},
		{"every kind", func(c *Collector) {
			c.Instant(10, 0, "steal", Arg{K: "victim", V: 1})
			c.Span(20, 35, 1, "suspend", Arg{K: "frames", V: 2})
			c.CounterSample(50, 0, "readyq", 3)
		}},
		{"zero and negative spans", func(c *Collector) {
			c.Span(40, 40, 1, "restart")
			c.Span(40, 30, 0, "backwards", Arg{K: "k", V: -1})
			c.Span(math.MinInt64, math.MaxInt64, 2, "wide")
		}},
		{"unknown kinds", func(c *Collector) {
			c.events = append(c.events,
				Event{Ts: 3, Worker: 1, Kind: 'Q', Name: "odd"},
				Event{Ts: 4, Dur: 9, Worker: 0, Kind: 0, Name: "zero-kind", Args: []Arg{{K: "a", V: 1}}},
				Event{Ts: 5, Dur: 2, Worker: 2, Kind: 'i', Name: "instant-with-dur"},
				Event{Ts: 6, Dur: 7, Worker: 2, Kind: 'C', Name: "counter-with-dur"})
		}},
		{"empty args slice", func(c *Collector) {
			c.events = append(c.events, Event{Ts: 1, Kind: 'X', Dur: 3, Name: "bare", Args: []Arg{}})
			c.Instant(2, 0, "none")
		}},
		{"unsorted and duplicate keys", func(c *Collector) {
			c.Instant(1, 0, "dups",
				Arg{K: "z", V: 1}, Arg{K: "a", V: 2}, Arg{K: "m", V: 3},
				Arg{K: "a", V: 4}, Arg{K: "z", V: 5}, Arg{K: "a", V: 6})
			c.Instant(2, 0, "first-dup", Arg{K: "a", V: 1}, Arg{K: "a", V: 2}, Arg{K: "b", V: 3})
			c.Instant(3, 0, "all-dup", Arg{K: "x", V: 1}, Arg{K: "x", V: 2}, Arg{K: "x", V: 3})
			c.Instant(4, 0, "case", Arg{K: "B", V: 1}, Arg{K: "a", V: 2}, Arg{K: "A", V: 3}, Arg{K: "", V: 4})
		}},
		{"extreme values", func(c *Collector) {
			c.Instant(math.MinInt64, 0, "min", Arg{K: "v", V: math.MinInt64})
			c.Instant(math.MaxInt64, 0, "max", Arg{K: "v", V: math.MaxInt64})
			c.events = append(c.events, Event{Ts: 0, Worker: -2, Kind: 'i', Name: "negative-worker"})
		}},
		{"awkward names and keys", func(c *Collector) {
			for i, s := range awkward {
				c.Instant(int64(i), i%3, s, Arg{K: s, V: int64(i)}, Arg{K: "plain", V: 1})
				c.Span(int64(i), int64(i+2), 0, "span", Arg{K: s + s, V: -int64(i)})
			}
			// Distinct invalid keys render to the same text; both stay.
			c.Instant(99, 1, "collide", Arg{K: "\xff", V: 1}, Arg{K: "\xfe", V: 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			tc.build(c)
			checkAgainstReference(t, c)
		})
	}
}

// TestAppendJSONStringMatchesEncoder checks the string quoter against
// encoding/json on every single byte and on the awkward set.
func TestAppendJSONStringMatchesEncoder(t *testing.T) {
	inputs := append([]string(nil), awkward...)
	for b := 0; b < 256; b++ {
		inputs = append(inputs, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	for _, s := range inputs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("quote(%q) = %s, want %s", s, got, want)
		}
	}
}

// fuzzCollector decodes an arbitrary byte string into an event stream:
// each event takes a kind selector, a worker, a timestamp, a duration, a
// name and up to three args, with names and keys cut from the input
// itself (so they carry whatever bytes the fuzzer chose) or drawn from a
// tiny pool (so duplicate keys are common). Some records only register a
// worker's accounting state.
func fuzzCollector(data []byte) *Collector {
	c := New()
	take := func(n int) []byte {
		n = min(n, len(data))
		out := data[:n]
		data = data[n:]
		return out
	}
	byteAt := func() byte {
		if b := take(1); len(b) == 1 {
			return b[0]
		}
		return 0
	}
	varint := func() int64 {
		v, n := binary.Varint(data)
		if n <= 0 {
			data = data[min(len(data), 1):]
			return 0
		}
		data = data[n:]
		return v
	}
	pool := []string{"a", "b", "victim", "frames", "a"}
	str := func() string {
		sel := byteAt()
		if sel&1 == 0 {
			return pool[int(sel>>1)%len(pool)]
		}
		return string(take(int(sel>>1) % 12))
	}
	kinds := []byte{'i', 'X', 'C', 'Q', 0}
	for len(data) > 0 && len(c.events) < 256 {
		sel := byteAt()
		worker := int(sel>>3) % 6
		if sel&7 == 7 {
			c.Worker(worker)
			continue
		}
		e := Event{Kind: kinds[int(sel&7)%len(kinds)], Worker: worker - 1, Ts: varint(), Dur: varint(), Name: str()}
		if n := int(byteAt() % 5); n < 4 {
			e.Args = []Arg{}
			for ; n > 0; n-- {
				e.Args = append(e.Args, Arg{K: str(), V: varint()})
			}
		}
		c.events = append(c.events, e)
	}
	return c
}

// FuzzChromeTrace compares the direct renderer with the encoding/json
// reference byte for byte over random event streams.
func FuzzChromeTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x0f, 0x01, 0x02, 0x04, 0x02, 0x00, 0x09, 'h', 'i', 0x01})
	f.Add([]byte("\x01\x02\x00\x09<&\"\x03\x02\x00\x02\x02\x00\x04"))
	f.Add([]byte("\x09\x80\x01\x7f\x17bad\xff\xe2\x80\xa8\x02\x01\x0fkey\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, fuzzCollector(data))
	})
}
