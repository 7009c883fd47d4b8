package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exportset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
)

// sampleMem is a memory image sized to sample's regions (they end at
// 1<<18+512) holding two nonzero pages.
func sampleMem() *mem.State {
	words := make([]int64, 2*mem.PageWords)
	copy(words[mem.Guard:], []int64{1, -2, 3})
	words[mem.PageWords+4] = 1 << 40
	return &mem.State{Size: 1<<18 + 512, Index: []int64{0, 300}, Words: words, HeapNext: 1 << 6}
}

// sample builds a snapshot exercising every field of the format, including
// empty and non-empty variants of the optional collections.
func sample() *Snapshot {
	w0 := machine.WorkerState{
		PC:     0x40,
		Cycles: 1234,
		Stats:  machine.Stats{Instrs: 900, Calls: 31, Suspends: 2, Restarts: 1, Exports: 4, StackHighWater: 96, Segments: 2, SegmentsLive: 1},
		Cur:    1,
		Free:   []int{0},
		Poll:   true,
		WLLo:   64, WLHi: 72,
		Segs: []machine.SegState{
			{Lo: 1 << 16, Hi: 1<<16 + 512},
			{Lo: 1 << 17, Hi: 1<<17 + 512, Exported: []exportset.Entry{{FP: 131200, Low: 131136}, {FP: 131328, Low: 131264}}},
		},
		Ready: []machine.ContextState{{ResumePC: 0x88, Top: 131100, Bottom: 131072}},
	}
	w0.Regs[3] = -7
	w1 := machine.WorkerState{
		Cur:  0,
		Segs: []machine.SegState{{Lo: 1 << 18, Hi: 1<<18 + 512}},
	}
	th := machine.ThunkState{PC: 0x100, ResumePC: 0x104, Callsite: 0x90, IsFork: true, FP: 131200}
	th.Regs[0] = 42
	return &Snapshot{
		Key:     "app=fib|n=20|mode=st|workers=2|seed=1",
		TraceID: "a1b2c3d4",
		Mach: &machine.State{
			Mem:       sampleMem(),
			Workers:   []machine.WorkerState{w0, w1},
			Thunks:    []machine.ThunkState{th},
			NextThunk: 5,
			Rng:       0xdeadbeefcafe,
		},
		Sched: &sched.SchedState{
			Status:   []int{0, 1},
			WakeAt:   []int64{0, 977},
			Reqs:     []sched.ReqState{{Thief: -1}, {Thief: 0, PostedAt: 880}},
			Spurious: []bool{false, true},
			Rng:      99,
			Picks:    41,
			Steals:   3, Attempts: 7, Rejects: 2,
		},
		Fault: &fault.State{Streams: []uint64{1, 2, 3, 4, 5, 6, 7}},
		Obs: &obs.CollectorState{
			SamplePeriod: 100,
			Makespan:     977,
			Samples:      9,
			Workers: []obs.WorkerObsState{
				{ID: 0, Total: 900, Period: 100, NextSample: 1000, Samples: 9, Attributed: 880},
				{ID: 1, Total: 70},
			},
			Events: []obs.Event{
				{Ts: 10, Dur: 5, Worker: 0, Kind: 'X', Name: "steal", Args: []obs.Arg{{K: "victim", V: 1}}},
				{Ts: 20, Worker: 1, Kind: 'i', Name: "idle"},
			},
			Flat:     []obs.NamedValue{{Name: "fib", V: 800}},
			Cum:      []obs.NamedValue{{Name: "boot", V: 900}, {Name: "fib", V: 850}},
			Counters: []obs.NamedValue{{Name: "sched.steals", V: 3}},
			Gauges:   []obs.NamedValue{{Name: "deque.depth", V: 2}},
			Hists: []obs.NamedHist{
				{Name: "sched.steal_latency", Count: 3, Sum: 60, Min: 10, Max: 30, Buckets: make([]int64, 48)},
			},
		},
		Out: []byte("partial output\n"),
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	enc, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("equal snapshots encoded to different bytes")
	}
}

func TestRoundTripMinimal(t *testing.T) {
	s := &Snapshot{
		Key: "k",
		Mach: &machine.State{
			Mem:     &mem.State{Size: 512},
			Workers: []machine.WorkerState{{Segs: []machine.SegState{{Lo: 0, Hi: 512}}}},
		},
		Sched: &sched.SchedState{Status: []int{0}, WakeAt: []int64{0}, Reqs: []sched.ReqState{{Thief: -1}}, Spurious: []bool{false}},
	}
	enc, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Fault != nil || got.Obs != nil {
		t.Fatalf("optional sections should decode nil, got %+v", got)
	}
	if got.Key != "k" || len(got.Mach.Workers) != 1 {
		t.Fatalf("minimal round-trip mismatch: %+v", got)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Decode([]byte("not a snapshot at all, definitely")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("nil payload err = %v, want ErrBadMagic", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	enc, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	// The version field sits right after the 6-byte magic.
	binary.LittleEndian.PutUint32(enc[6:], FormatVersion+1)
	_, err = Decode(enc)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *VersionError", err)
	}
	if ve.Got != FormatVersion+1 || ve.Want != FormatVersion {
		t.Fatalf("VersionError = %+v", ve)
	}
}

func TestCorruption(t *testing.T) {
	enc, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the body: the CRC trailer must catch it.
	flipped := bytes.Clone(enc)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := Decode(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flip err = %v, want ErrCorrupt", err)
	}
	// Truncation inside the body.
	if _, err := Decode(enc[:len(enc)-20]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation err = %v, want ErrCorrupt", err)
	}
	// Trailing garbage (with a recomputed CRC so only the structural check
	// can catch it) must also be rejected.
	padded := append(bytes.Clone(enc[:len(enc)-4]), 0, 0, 0)
	padded = binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(padded))
	if _, err := Decode(padded); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing-bytes err = %v, want ErrCorrupt", err)
	}
}

func TestStores(t *testing.T) {
	dir, err := NewDirStore(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"mem": NewMemStore(), "dir": dir} {
		t.Run(name, func(t *testing.T) {
			enc, err := Encode(sample())
			if err != nil {
				t.Fatal(err)
			}
			key := sample().Key
			if _, err := st.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get before Put: err = %v, want ErrNotFound", err)
			}
			if err := st.Put(key, enc); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := st.Get(key)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, enc) {
				t.Fatal("Get returned different bytes than Put stored")
			}
			if err := st.Delete(key); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if err := st.Delete(key); err != nil {
				t.Fatalf("Delete (absent) must be idempotent: %v", err)
			}
			if _, err := st.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
			}
		})
	}
}
