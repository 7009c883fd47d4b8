package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mem"
)

// TestDecodeRejectsBadImage feeds Decode memory images a peer or a
// checkpoint directory could hand it. Each must fail with ErrCorrupt
// wrapping a *mem.ImageError, without panicking and without allocating in
// proportion to the image's claimed size.
func TestDecodeRejectsBadImage(t *testing.T) {
	lastPage := int64((1<<18 + 512 - 1) >> mem.PageShift)
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"index descending", func(s *Snapshot) { s.Mach.Mem.Index = []int64{300, 0} }},
		{"index repeated", func(s *Snapshot) { s.Mach.Mem.Index = []int64{300, 300} }},
		{"index negative", func(s *Snapshot) { s.Mach.Mem.Index = []int64{-1, 0} }},
		{"index past size", func(s *Snapshot) { s.Mach.Mem.Index = []int64{0, lastPage + 1} }},
		{"index far past size", func(s *Snapshot) { s.Mach.Mem.Index = []int64{0, 1 << 55} }},
		{"words short", func(s *Snapshot) { s.Mach.Mem.Words = s.Mach.Mem.Words[:len(s.Mach.Mem.Words)-1] }},
		{"words long", func(s *Snapshot) { s.Mach.Mem.Words = append(s.Mach.Mem.Words, 0) }},
		{"words without index", func(s *Snapshot) { s.Mach.Mem.Index = nil }},
		{"nonzero guard word", func(s *Snapshot) { s.Mach.Mem.Words[mem.Guard-1] = 5 }},
		{"nonzero word past size", func(s *Snapshot) {
			// Shrink the last region so the image's last page straddles
			// its end, then dirty a word beyond it.
			end := int64(1<<18 + 300)
			s.Mach.Workers[1].Segs[0].Hi = end
			s.Mach.Mem.Size = end
			s.Mach.Mem.Index = []int64{0, lastPage}
			s.Mach.Mem.Words[mem.PageWords+(end&mem.PageMask)+1] = 7
		}},
		{"size below guard", func(s *Snapshot) { s.Mach.Mem.Size = mem.Guard - 1 }},
		{"size past regions", func(s *Snapshot) { s.Mach.Mem.Size++ }},
		{"size short of regions", func(s *Snapshot) { s.Mach.Mem.Size -= mem.PageWords }},
		{"size 1<<60", func(s *Snapshot) { s.Mach.Mem.Size = 1 << 60 }},
		{"size 1<<60 without pages", func(s *Snapshot) {
			s.Mach.Mem.Size = 1 << 60
			s.Mach.Mem.Index, s.Mach.Mem.Words = nil, nil
		}},
		{"no workers", func(s *Snapshot) { s.Mach.Workers = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sample()
			tc.mutate(s)
			enc, err := Encode(s)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			var got *Snapshot
			alloc := allocatedBy(func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Decode panicked: %v", r)
					}
				}()
				got, err = Decode(enc)
			})
			var ie *mem.ImageError
			if got != nil || !errors.Is(err, ErrCorrupt) || !errors.As(err, &ie) {
				t.Fatalf("Decode = %v, %v; want ErrCorrupt wrapping *mem.ImageError", got, err)
			}
			if limit := uint64(8*len(enc) + 1<<20); alloc > limit {
				t.Fatalf("Decode of a %d-byte payload allocated %d bytes (limit %d)", len(enc), alloc, limit)
			}
		})
	}
}

// allocatedBy reports the heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestImageIndependentOfMaterialization checks a memory image is a function
// of memory contents alone: a page that was stored to and then re-zeroed
// exports exactly like a page that was never touched, so the two memories
// yield equal images and equal snapshot bytes.
func TestImageIndependentOfMaterialization(t *testing.T) {
	build := func(rezero bool) *mem.Memory {
		m := mem.New(8 * mem.PageWords)
		m.Store(mem.Guard, 1)
		m.Store(5*mem.PageWords+7, -3)
		if rezero {
			a := int64(3*mem.PageWords + 11)
			m.Store(a, 42)
			m.Store(a+1, 43)
			m.Store(a, 0)
			m.Store(a+1, 0)
			if m.Pages()[3] == nil {
				t.Fatal("a nonzero store did not materialize its page")
			}
		}
		return m
	}
	touched, untouched := build(true), build(false)
	a, b := touched.ExportState(), untouched.ExportState()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("images differ:\n touched   %v\n untouched %v", a.Index, b.Index)
	}
	if want := []int64{0, 5}; !reflect.DeepEqual(a.Index, want) {
		t.Fatalf("image pages = %v, want %v", a.Index, want)
	}
	encode := func(st *mem.State) []byte {
		s := sample()
		s.Mach.Mem = st
		enc, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if !bytes.Equal(encode(a), encode(b)) {
		t.Fatal("equal memory contents encoded to different snapshot bytes")
	}
}
