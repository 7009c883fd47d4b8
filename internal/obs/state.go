package obs

import (
	"fmt"
	"slices"
	"sort"
)

// This file implements collector state export/import for checkpoint/resume:
// a run suspended at a pick boundary carries its observability state (phase
// attribution, profiler accumulators, event stream, metrics) along with the
// machine state, so the resumed run's final artifacts — report, profile,
// Chrome trace, metrics JSON — are byte-identical to an undisturbed run's.
// Everything map-shaped is exported as name-sorted slices so the snapshot
// codec's bytes are deterministic.

// WorkerObsState is one worker's serializable attribution state, including
// the internal attributed total (the user-phase residual depends on it).
type WorkerObsState struct {
	ID         int
	Phase      [NumPhases]int64
	Total      int64
	Period     int64
	NextSample int64
	Samples    int64
	Attributed int64
}

// NamedValue is one counter or gauge.
type NamedValue struct {
	Name string
	V    int64
}

// NamedHist is one histogram's full state (all buckets, including empty).
type NamedHist struct {
	Name       string
	Count, Sum int64
	Min, Max   int64
	Buckets    []int64
}

// CollectorState is a collector's complete restorable state.
type CollectorState struct {
	SamplePeriod int64
	Makespan     int64
	Samples      int64
	Workers      []WorkerObsState
	Events       []Event
	Flat         []NamedValue
	Cum          []NamedValue
	Counters     []NamedValue
	Gauges       []NamedValue
	Hists        []NamedHist
}

// profileValues lists the profiler's flat (or cumulative) entries sorted
// by procedure name.
func (c *Collector) profileValues(flat bool) []NamedValue {
	out := []NamedValue{}
	for id, p := range c.procs {
		switch {
		case flat && p.hasFlat:
			out = append(out, NamedValue{Name: c.names[id], V: p.flat})
		case !flat && p.hasCum:
			out = append(out, NamedValue{Name: c.names[id], V: p.cum})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExportState deep-copies the collector's state.
func (c *Collector) ExportState() *CollectorState {
	st := &CollectorState{
		SamplePeriod: c.SamplePeriod,
		Makespan:     c.makespan,
		Samples:      c.samples,
		Flat:         c.profileValues(true),
		Cum:          c.profileValues(false),
	}
	for _, o := range c.workers {
		if o == nil {
			continue
		}
		st.Workers = append(st.Workers, WorkerObsState{
			ID: o.ID, Phase: o.Phase, Total: o.Total,
			Period: o.Period, NextSample: o.NextSample,
			Samples: o.Samples, Attributed: o.attributed,
		})
	}
	st.Events = make([]Event, len(c.events))
	for i, e := range c.events {
		e.Args = slices.Clone(e.Args)
		st.Events[i] = e
	}
	r := c.Metrics
	for name, cv := range r.counters {
		st.Counters = append(st.Counters, NamedValue{Name: name, V: cv.v})
	}
	sort.Slice(st.Counters, func(i, j int) bool { return st.Counters[i].Name < st.Counters[j].Name })
	for name, g := range r.gauges {
		st.Gauges = append(st.Gauges, NamedValue{Name: name, V: g.v})
	}
	sort.Slice(st.Gauges, func(i, j int) bool { return st.Gauges[i].Name < st.Gauges[j].Name })
	for name, h := range r.hists {
		st.Hists = append(st.Hists, NamedHist{
			Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Buckets: slices.Clone(h.buckets[:]),
		})
	}
	sort.Slice(st.Hists, func(i, j int) bool { return st.Hists[i].Name < st.Hists[j].Name })
	return st
}

// ImportState installs a previously exported state. The collector keeps its
// identity (the machine's workers hold pointers into it), so histogram
// handles created by New — StealLatency and friends — stay valid: import
// writes through the registry's existing objects.
func (c *Collector) ImportState(st *CollectorState) error {
	c.SamplePeriod = st.SamplePeriod
	c.makespan = st.Makespan
	c.samples = st.Samples
	c.workers = nil
	for _, ws := range st.Workers {
		o := c.Worker(ws.ID)
		o.Phase = ws.Phase
		o.Total = ws.Total
		o.Period = ws.Period
		o.NextSample = ws.NextSample
		o.Samples = ws.Samples
		o.attributed = ws.Attributed
	}
	c.events = make([]Event, len(st.Events))
	for i, e := range st.Events {
		e.Args = slices.Clone(e.Args)
		c.events[i] = e
	}
	clear(c.procs)
	for _, nv := range st.Flat {
		p := &c.procs[c.intern(nv.Name)]
		p.flat, p.hasFlat = nv.V, true
	}
	for _, nv := range st.Cum {
		p := &c.procs[c.intern(nv.Name)]
		p.cum, p.hasCum = nv.V, true
	}
	r := c.Metrics
	for _, nv := range st.Counters {
		r.Counter(nv.Name).v = nv.V
	}
	for _, nv := range st.Gauges {
		r.Gauge(nv.Name).v = nv.V
	}
	for _, nh := range st.Hists {
		if len(nh.Buckets) != histBuckets {
			return fmt.Errorf("obs: histogram %q has %d buckets, want %d",
				nh.Name, len(nh.Buckets), histBuckets)
		}
		h := r.Histogram(nh.Name)
		h.count, h.sum, h.min, h.max = nh.Count, nh.Sum, nh.Min, nh.Max
		copy(h.buckets[:], nh.Buckets)
	}
	return nil
}
