package obs

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// WriteChromeTrace renders the enriched event stream as Chrome trace_event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. One
// process with one thread track per worker; spans show suspend/restart/
// steal-service work, instants show scheduling events, and counter tracks
// show ready-queue depth. Virtual cycles map to microseconds one-to-one:
// 1 cycle = 1µs of trace time.
//
// The document is appended directly into one buffer. Its bytes are exactly
// what encoding/json's Encoder (one-space indent, HTML escaping) produces
// for the schema's struct form, with args as a map; chrome_test.go keeps
// that encoder-based renderer as the oracle and checks the two agree.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
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
	// Real runs' events render to about 136 bytes each; size the buffer so
	// it never regrows.
	b := make([]byte, 0, 512+144*(workers+len(c.events)))
	b = append(b, "{\n \"traceEvents\": [\n"...)
	b = appendMetaEvent(b, "process_name", 0, "stackthreads-mp")
	for i := 0; i < workers; i++ {
		b = append(b, ",\n"...)
		b = appendMetaEvent(b, "thread_name", i, "worker "+strconv.Itoa(i))
	}
	var args []Arg // sort scratch, reused across events
	for _, e := range c.events {
		b = append(b, ",\n  {\n   \"name\": "...)
		b = appendJSONString(b, e.Name)
		switch e.Kind {
		case 'X':
			b = append(b, ",\n   \"ph\": \"X\""...)
		case 'C':
			b = append(b, ",\n   \"ph\": \"C\""...)
		default:
			b = append(b, ",\n   \"ph\": \"i\""...)
		}
		b = append(b, ",\n   \"ts\": "...)
		b = strconv.AppendInt(b, e.Ts, 10)
		if e.Kind == 'X' {
			dur := e.Dur
			if dur <= 0 {
				dur = 1 // zero-length spans are invisible; clamp to 1 cycle
			}
			b = append(b, ",\n   \"dur\": "...)
			b = strconv.AppendInt(b, dur, 10)
		}
		b = append(b, ",\n   \"pid\": 0,\n   \"tid\": "...)
		b = strconv.AppendInt(b, int64(e.Worker), 10)
		if e.Kind != 'X' && e.Kind != 'C' {
			b = append(b, ",\n   \"s\": \"t\""...) // instant scope: thread
		}
		if len(e.Args) > 0 {
			// A JSON object's keys come out sorted, and a repeated key keeps
			// its last value: the stable sort leaves duplicates in insertion
			// order, so each run of equal keys emits only its last entry.
			args = append(args[:0], e.Args...)
			slices.SortStableFunc(args, func(x, y Arg) int { return strings.Compare(x.K, y.K) })
			b = append(b, ",\n   \"args\": {"...)
			sep := "\n    "
			for i, a := range args {
				if i+1 < len(args) && args[i+1].K == a.K {
					continue
				}
				b = append(b, sep...)
				sep = ",\n    "
				b = appendJSONString(b, a.K)
				b = append(b, ": "...)
				b = strconv.AppendInt(b, a.V, 10)
			}
			b = append(b, "\n   }"...)
		}
		b = append(b, "\n  }"...)
	}
	b = append(b, `
 ],
 "displayTimeUnit": "ms",
 "metadata": {
  "tool": "stackthreads-mp obs",
  "note": "deterministic virtual-time run",
  "cycle-unit": "1 virtual cycle = 1us of trace time"
 }
}
`...)
	_, err := w.Write(b)
	return err
}

// appendMetaEvent appends one metadata ("M") event naming a process or
// thread track.
func appendMetaEvent(b []byte, kind string, tid int, name string) []byte {
	b = append(b, "  {\n   \"name\": \""...)
	b = append(b, kind...)
	b = append(b, "\",\n   \"ph\": \"M\",\n   \"ts\": 0,\n   \"pid\": 0,\n   \"tid\": "...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, ",\n   \"args\": {\n    \"name\": "...)
	b = appendJSONString(b, name)
	return append(b, "\n   }\n  }"...)
}

// appendJSONString appends s as a JSON string literal, quoted exactly as
// encoding/json quotes it with HTML escaping on: '"' and '\\' get backslash
// escapes, \b \f \n \r \t their short forms, other control bytes and <, >, &
// \u00XX, U+2028/U+2029 \u202X, and each invalid UTF-8 byte \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
