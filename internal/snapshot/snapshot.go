// Package snapshot is the versioned, deterministic binary codec for
// suspended runs: a captured continuation (machine, scheduler and
// fault-injector state at a pick boundary) bundled with the partial
// artifacts accumulated so far (observability state and program output
// prefix) and the job identity it belongs to.
//
// Determinism is a hard contract: encoding the same Snapshot twice yields
// identical bytes (all map-shaped state is exported as sorted slices by the
// owning packages), so checkpoints can be compared, content-addressed and
// deduplicated. The format is explicitly versioned — a node upgraded to a
// newer encoding refuses stale artifacts with a typed *VersionError instead
// of misdecoding them — and integrity-checked with a CRC32 trailer.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/exportset"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
)

// FormatVersion is the current snapshot encoding version. Bump it on any
// layout change; decoders reject other versions with a *VersionError, and
// the serving layer keys caches and checkpoints by it so an upgraded node
// can never serve or resume a stale-format artifact.
const FormatVersion = 3

// magic identifies snapshot files/payloads.
var magic = [6]byte{'S', 'T', 'S', 'N', 'A', 'P'}

// ErrBadMagic reports a payload that is not a snapshot at all.
var ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot)")

// ErrCorrupt reports a snapshot that fails structural or checksum
// validation.
var ErrCorrupt = errors.New("snapshot: corrupt payload")

// VersionError reports a snapshot encoded under a different format version.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d, this build reads only %d", e.Got, e.Want)
}

// Snapshot is one suspended run: identity, continuation, and the partial
// deterministic artifacts accumulated up to the capture boundary.
type Snapshot struct {
	// Key is the canonical job tuple the continuation belongs to (the
	// serving layer's versioned cache key). Resuming under a different
	// tuple would silently produce wrong bytes, so consumers check it.
	Key string
	// TraceID joins the resumed run to the originating request's
	// end-to-end trace, across nodes.
	TraceID string
	// Mach, Sched and Fault are the continuation proper.
	Mach  *machine.State
	Sched *sched.SchedState
	Fault *fault.State
	// Obs is the collector state at capture; nil when the run had none.
	Obs *obs.CollectorState
	// Out is the program output prefix at capture.
	Out []byte
}

// writer serializes values into a growing buffer.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) i64s(vs []int64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.i64(v)
	}
}
func (w *writer) u64s(vs []uint64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.u64(v)
	}
}

// reader deserializes from a buffer; the first structural violation sticks.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}
func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}
func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// length reads a collection length and bounds it by the bytes remaining
// (every element costs at least one byte), so corrupt lengths fail fast
// instead of allocating wildly.
func (r *reader) length() int {
	n := r.u64()
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}
func (r *reader) str() string {
	n := r.length()
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}
func (r *reader) bytes() []byte {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+n])
	r.off += n
	return out
}
func (r *reader) count(elemBytes int) int {
	n := r.u64()
	if r.err != nil || elemBytes <= 0 || n > uint64((len(r.b)-r.off)/elemBytes) {
		r.fail()
		return 0
	}
	return int(n)
}
func (r *reader) i64s() []int64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}
func (r *reader) u64s() []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

// Encode serializes the snapshot. Equal snapshots encode to equal bytes.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil || s.Mach == nil || s.Sched == nil {
		return nil, fmt.Errorf("snapshot: encode: incomplete snapshot (nil machine or scheduler state)")
	}
	w := &writer{buf: make([]byte, 0, 64+8*len(s.Mach.Mem.Words))}
	w.buf = append(w.buf, magic[:]...)
	w.u32(FormatVersion)
	w.str(s.Key)
	w.str(s.TraceID)

	encodeMach(w, s.Mach)
	encodeSched(w, s.Sched)

	w.boolean(s.Fault != nil)
	if s.Fault != nil {
		w.u64s(s.Fault.Streams)
	}
	w.boolean(s.Obs != nil)
	if s.Obs != nil {
		encodeObs(w, s.Obs)
	}

	w.bytes(s.Out)

	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf, nil
}

func encodeMach(w *writer, st *machine.State) {
	w.i64(st.Mem.Size)
	w.i64s(st.Mem.Index)
	w.i64s(st.Mem.Words)
	w.i64(st.Mem.HeapNext)
	w.u64(uint64(len(st.Workers)))
	for i := range st.Workers {
		ws := &st.Workers[i]
		for _, v := range ws.Regs {
			w.i64(v)
		}
		w.i64(ws.PC)
		w.i64(ws.Cycles)
		encodeStats(w, &ws.Stats)
		w.i64(int64(ws.Cur))
		w.u64(uint64(len(ws.Free)))
		for _, f := range ws.Free {
			w.i64(int64(f))
		}
		w.boolean(ws.Poll)
		w.i64(ws.WLLo)
		w.i64(ws.WLHi)
		w.u64(uint64(len(ws.Segs)))
		for _, sg := range ws.Segs {
			w.i64(sg.Lo)
			w.i64(sg.Hi)
			w.u64(uint64(len(sg.Exported)))
			for _, e := range sg.Exported {
				w.i64(e.FP)
				w.i64(e.Low)
			}
		}
		w.u64(uint64(len(ws.Ready)))
		for _, c := range ws.Ready {
			w.i64(c.ResumePC)
			w.i64(c.Top)
			w.i64(c.Bottom)
			for _, v := range c.Regs {
				w.i64(v)
			}
		}
	}
	w.u64(uint64(len(st.Thunks)))
	for _, t := range st.Thunks {
		w.i64(t.PC)
		w.i64(t.ResumePC)
		w.i64(t.Callsite)
		w.boolean(t.IsFork)
		w.i64(t.FP)
		for _, v := range t.Regs {
			w.i64(v)
		}
	}
	w.i64(st.NextThunk)
	w.u64(st.Rng)
}

func encodeStats(w *writer, st *machine.Stats) {
	w.i64(st.Instrs)
	w.i64(st.Calls)
	w.i64(st.Suspends)
	w.i64(st.Restarts)
	w.i64(st.Exports)
	w.i64(st.Shrinks)
	w.i64(st.Extends)
	w.i64(st.StackHighWater)
	w.i64(st.Segments)
	w.i64(st.SegmentsLive)
}

func encodeSched(w *writer, st *sched.SchedState) {
	w.u64(uint64(len(st.Status)))
	for _, v := range st.Status {
		w.i64(int64(v))
	}
	w.i64s(st.WakeAt)
	w.u64(uint64(len(st.Reqs)))
	for _, r := range st.Reqs {
		w.i64(int64(r.Thief))
		w.i64(r.PostedAt)
	}
	w.u64(uint64(len(st.Spurious)))
	for _, v := range st.Spurious {
		w.boolean(v)
	}
	w.u64(st.Rng)
	w.i64(st.Picks)
	w.i64(st.Steals)
	w.i64(st.Attempts)
	w.i64(st.Rejects)
}

func encodeNamed(w *writer, vs []obs.NamedValue) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.str(v.Name)
		w.i64(v.V)
	}
}

func encodeObs(w *writer, st *obs.CollectorState) {
	w.i64(st.SamplePeriod)
	w.i64(st.Makespan)
	w.i64(st.Samples)
	w.u64(uint64(len(st.Workers)))
	for _, o := range st.Workers {
		w.i64(int64(o.ID))
		for _, v := range o.Phase {
			w.i64(v)
		}
		w.i64(o.Total)
		w.i64(o.Period)
		w.i64(o.NextSample)
		w.i64(o.Samples)
		w.i64(o.Attributed)
	}
	w.u64(uint64(len(st.Events)))
	for _, e := range st.Events {
		w.i64(e.Ts)
		w.i64(e.Dur)
		w.i64(int64(e.Worker))
		w.u8(e.Kind)
		w.str(e.Name)
		w.u64(uint64(len(e.Args)))
		for _, a := range e.Args {
			w.str(a.K)
			w.i64(a.V)
		}
	}
	encodeNamed(w, st.Flat)
	encodeNamed(w, st.Cum)
	encodeNamed(w, st.Counters)
	encodeNamed(w, st.Gauges)
	w.u64(uint64(len(st.Hists)))
	for _, h := range st.Hists {
		w.str(h.Name)
		w.i64(h.Count)
		w.i64(h.Sum)
		w.i64(h.Min)
		w.i64(h.Max)
		w.i64s(h.Buckets)
	}
}

// header validates magic + version + CRC and returns a reader positioned
// after the version field.
func header(b []byte) (*reader, error) {
	if len(b) < len(magic)+4+4 {
		return nil, ErrBadMagic
	}
	for i := range magic {
		if b[i] != magic[i] {
			return nil, ErrBadMagic
		}
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	r := &reader{b: body, off: len(magic)}
	if v := r.u32(); v != FormatVersion {
		// Version is checked before the checksum: a stale-format artifact
		// must surface as a *VersionError, not as corruption.
		return nil, &VersionError{Got: v, Want: FormatVersion}
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrCorrupt
	}
	return r, nil
}

// DecodeKey reads just the job key from an encoded snapshot — enough for a
// checkpoint store to index its contents without decoding full memory
// images.
func DecodeKey(b []byte) (string, error) {
	r, err := header(b)
	if err != nil {
		return "", err
	}
	key := r.str()
	if r.err != nil {
		return "", r.err
	}
	return key, nil
}

// Decode deserializes an encoded snapshot, validating magic, version,
// checksum and structure. It returns ErrBadMagic, a *VersionError or
// ErrCorrupt (possibly wrapped) on invalid input; a malformed memory image
// is ErrCorrupt wrapping a *mem.ImageError. Every allocation is bounded by
// the payload size.
func Decode(b []byte) (*Snapshot, error) {
	r, err := header(b)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		Key:     r.str(),
		TraceID: r.str(),
		Mach:    decodeMach(r),
		Sched:   decodeSched(r),
	}
	if r.boolean() {
		s.Fault = &fault.State{Streams: r.u64s()}
	}
	if r.boolean() {
		s.Obs = decodeObs(r)
	}
	s.Out = r.bytes()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.off)
	}
	// The memory image arrives from peers and checkpoint directories and
	// decides how far a resume extends the page table: bound it by the
	// regions the workers name before anyone acts on it.
	if err := s.Mach.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return s, nil
}

func decodeMach(r *reader) *machine.State {
	st := &machine.State{
		Mem: &mem.State{Size: r.i64(), Index: r.i64s(), Words: r.i64s(), HeapNext: r.i64()},
	}
	nw := r.count(8 * (int(isa.NumRegs) + 2))
	for i := 0; i < nw; i++ {
		var ws machine.WorkerState
		for j := range ws.Regs {
			ws.Regs[j] = r.i64()
		}
		ws.PC = r.i64()
		ws.Cycles = r.i64()
		decodeStats(r, &ws.Stats)
		ws.Cur = int(r.i64())
		nf := r.count(8)
		for j := 0; j < nf; j++ {
			ws.Free = append(ws.Free, int(r.i64()))
		}
		ws.Poll = r.boolean()
		ws.WLLo = r.i64()
		ws.WLHi = r.i64()
		ns := r.count(8 * 3)
		for j := 0; j < ns; j++ {
			sg := machine.SegState{Lo: r.i64(), Hi: r.i64()}
			ne := r.count(8 * 2)
			for k := 0; k < ne; k++ {
				sg.Exported = append(sg.Exported, exportset.Entry{FP: r.i64(), Low: r.i64()})
			}
			ws.Segs = append(ws.Segs, sg)
		}
		nr := r.count(8 * (3 + isa.NumCalleeSave))
		for j := 0; j < nr; j++ {
			var c machine.ContextState
			c.ResumePC = r.i64()
			c.Top = r.i64()
			c.Bottom = r.i64()
			for k := range c.Regs {
				c.Regs[k] = r.i64()
			}
			ws.Ready = append(ws.Ready, c)
		}
		st.Workers = append(st.Workers, ws)
	}
	nt := r.count(8 * (4 + isa.NumCalleeSave))
	for i := 0; i < nt; i++ {
		var t machine.ThunkState
		t.PC = r.i64()
		t.ResumePC = r.i64()
		t.Callsite = r.i64()
		t.IsFork = r.boolean()
		t.FP = r.i64()
		for k := range t.Regs {
			t.Regs[k] = r.i64()
		}
		st.Thunks = append(st.Thunks, t)
	}
	st.NextThunk = r.i64()
	st.Rng = r.u64()
	return st
}

func decodeStats(r *reader, st *machine.Stats) {
	st.Instrs = r.i64()
	st.Calls = r.i64()
	st.Suspends = r.i64()
	st.Restarts = r.i64()
	st.Exports = r.i64()
	st.Shrinks = r.i64()
	st.Extends = r.i64()
	st.StackHighWater = r.i64()
	st.Segments = r.i64()
	st.SegmentsLive = r.i64()
}

func decodeSched(r *reader) *sched.SchedState {
	st := &sched.SchedState{}
	n := r.count(8)
	for i := 0; i < n; i++ {
		st.Status = append(st.Status, int(r.i64()))
	}
	st.WakeAt = r.i64s()
	n = r.count(8 * 2)
	for i := 0; i < n; i++ {
		st.Reqs = append(st.Reqs, sched.ReqState{Thief: int(r.i64()), PostedAt: r.i64()})
	}
	n = r.count(1)
	for i := 0; i < n; i++ {
		st.Spurious = append(st.Spurious, r.boolean())
	}
	st.Rng = r.u64()
	st.Picks = r.i64()
	st.Steals = r.i64()
	st.Attempts = r.i64()
	st.Rejects = r.i64()
	return st
}

func decodeNamed(r *reader) []obs.NamedValue {
	n := r.count(8 + 8)
	var out []obs.NamedValue
	for i := 0; i < n; i++ {
		out = append(out, obs.NamedValue{Name: r.str(), V: r.i64()})
	}
	return out
}

func decodeObs(r *reader) *obs.CollectorState {
	st := &obs.CollectorState{
		SamplePeriod: r.i64(),
		Makespan:     r.i64(),
		Samples:      r.i64(),
	}
	n := r.count(8 * (int(obs.NumPhases) + 6))
	for i := 0; i < n; i++ {
		var o obs.WorkerObsState
		o.ID = int(r.i64())
		for j := range o.Phase {
			o.Phase[j] = r.i64()
		}
		o.Total = r.i64()
		o.Period = r.i64()
		o.NextSample = r.i64()
		o.Samples = r.i64()
		o.Attributed = r.i64()
		st.Workers = append(st.Workers, o)
	}
	n = r.count(8*4 + 1)
	for i := 0; i < n; i++ {
		e := obs.Event{
			Ts:     r.i64(),
			Dur:    r.i64(),
			Worker: int(r.i64()),
			Kind:   r.u8(),
			Name:   r.str(),
		}
		na := r.count(8 + 8)
		for j := 0; j < na; j++ {
			e.Args = append(e.Args, obs.Arg{K: r.str(), V: r.i64()})
		}
		st.Events = append(st.Events, e)
	}
	st.Flat = decodeNamed(r)
	st.Cum = decodeNamed(r)
	st.Counters = decodeNamed(r)
	st.Gauges = decodeNamed(r)
	n = r.count(8 * 6)
	for i := 0; i < n; i++ {
		st.Hists = append(st.Hists, obs.NamedHist{
			Name:    r.str(),
			Count:   r.i64(),
			Sum:     r.i64(),
			Min:     r.i64(),
			Max:     r.i64(),
			Buckets: r.i64s(),
		})
	}
	return st
}
