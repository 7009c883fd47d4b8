package obs

import (
	"fmt"
	"io"
	"sort"
)

// timelineKinds are the scheduler instants that make up the migration
// timeline — the observable behaviour of the Section 4 protocol — with the
// short label each prints under, in the order the summary counts them.
var timelineKinds = [...]struct{ name, label string }{
	{"steal-request", "request"},
	{"steal", "steal"},
	{"steal-reject", "reject"},
	{"idle", "idle"},
	{"resume", "resume"},
	{"halt", "halt"},
}

func timelineKind(name string) int {
	for k, tk := range timelineKinds {
		if tk.name == name {
			return k
		}
	}
	return -1
}

// argValue returns the value of e's arg named k.
func argValue(e *Event, k string) (int64, bool) {
	for _, a := range e.Args {
		if a.K == k {
			return a.V, true
		}
	}
	return 0, false
}

// WriteTimeline prints the run's migration-level timeline: steal requests,
// steals, rejects, ready-queue resumes, idle transitions and the halt, as a
// table in ascending virtual time (ties broken by worker, then by record
// order, so each worker's order is preserved), followed by one count per
// kind. Steal and resume rows carry the migrated thread's top frame; ST
// steal rows also carry the request→steal latency.
func (c *Collector) WriteTimeline(w io.Writer) {
	type row struct {
		e    *Event
		kind int
	}
	var rows []row
	var counts [len(timelineKinds)]int
	for i := range c.events {
		e := &c.events[i]
		if e.Kind != 'i' {
			continue
		}
		if k := timelineKind(e.Name); k >= 0 {
			rows = append(rows, row{e, k})
			counts[k]++
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i].e, rows[j].e
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Worker < b.Worker
	})

	fmt.Fprintf(w, "%12s %8s %7s %6s %10s %9s\n", "vtime", "kind", "worker", "from", "frame", "latency")
	for _, r := range rows {
		e := r.e
		from, frame, lat := "-", "-", "-"
		if v, ok := argValue(e, "victim"); ok {
			from = fmt.Sprintf("w%d", v)
		}
		if v, ok := argValue(e, "frame"); ok && v != 0 {
			frame = fmt.Sprintf("%d", v)
		}
		if v, ok := argValue(e, "latency"); ok && v > 0 {
			lat = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(w, "%12d %8s %6s  %6s %10s %9s\n",
			e.Ts, timelineKinds[r.kind].label, fmt.Sprintf("w%d", e.Worker), from, frame, lat)
	}
	fmt.Fprintln(w)
	for k, tk := range timelineKinds {
		fmt.Fprintf(w, "%10s %d\n", tk.label, counts[k])
	}
}
