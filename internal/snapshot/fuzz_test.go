package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/sched"
)

// headerLen is the magic plus the format version; the CRC-32 trailer
// follows the body.
const headerLen = len(magic) + 4

// frame wraps a body in the magic, the current version and a valid CRC-32
// trailer, so a mutated body reaches the structural decoder instead of
// stopping at the checksum.
func frame(body []byte) []byte {
	b := append(append([]byte{}, magic[:]...), binary.LittleEndian.AppendUint32(nil, FormatVersion)...)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// captureQuick runs a quick-scale app until pick boundary 40 with a
// collector attached, as a served job runs, and encodes the continuation.
func captureQuick(tb testing.TB, app string, mode core.Mode, workers int) []byte {
	tb.Helper()
	w, err := figures.Workload(app, figures.Quick, apps.ST)
	if err != nil {
		tb.Fatal(err)
	}
	col := obs.New()
	var out bytes.Buffer
	_, err = core.Run(w, core.Config{
		Mode: mode, Workers: workers, Seed: 1, Obs: col, Out: &out,
		Checkpoint: &sched.Checkpoint{YieldAtPick: 40},
	})
	var ye *sched.YieldError
	if !errors.As(err, &ye) {
		tb.Fatalf("%s %v workers=%d: want a yield at pick 40, got %v", app, mode, workers, err)
	}
	enc, err := Encode(&Snapshot{
		Key:   app,
		Mach:  ye.Boundary.Mach,
		Sched: ye.Boundary.Sched,
		Fault: ye.Boundary.Fault,
		Obs:   col.ExportState(),
		Out:   out.Bytes(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// FuzzSnapshotDecode treats the body of a snapshot as hostile input, as a
// payload from a peer or a checkpoint directory is. It is seeded with real
// quick-scale captures and mutates the bytes between the version and the
// trailer, recomputing the CRC. Decode must never panic, must allocate at
// most 8 bytes per input byte (plus a fixed 64 KiB), and anything it
// accepts must re-encode to the identical bytes.
func FuzzSnapshotDecode(f *testing.F) {
	for _, app := range []string{"fib", "cilksort", "knapsack"} {
		for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
			for _, workers := range []int{2, 8} {
				enc := captureQuick(f, app, mode, workers)
				f.Add(enc[headerLen : len(enc)-4])
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		enc := frame(body)
		var s *Snapshot
		var err error
		alloc := allocatedBy(func() { s, err = Decode(enc) })
		if limit := uint64(8*len(enc) + 64<<10); alloc > limit {
			t.Fatalf("Decode of a %d-byte payload allocated %d bytes (limit %d)", len(enc), alloc, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v is not ErrCorrupt", err)
			}
			return
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("accepted %d-byte snapshot re-encodes to %d different bytes", len(enc), len(re))
		}
	})
}

// TestEncodeAllocatesExactly checks Encode returns its bytes in a buffer of
// exactly their length, for a captured quick-scale snapshot with obs, and
// that the reused scratch buffer leaves the bytes unchanged: a smaller
// snapshot encoded after a larger one, then the larger again, reproduce.
func TestEncodeAllocatesExactly(t *testing.T) {
	big := captureQuick(t, "cilksort", core.StackThreads, 8)
	small := captureQuick(t, "fib", core.StackThreads, 2)
	for _, enc := range [][]byte{big, small} {
		if cap(enc) != len(enc) {
			t.Fatalf("Encode returned %d bytes in a %d-byte buffer", len(enc), cap(enc))
		}
		s, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, enc) || cap(re) != len(re) {
			t.Fatalf("re-encoding gave %d bytes (cap %d), want the %d captured", len(re), cap(re), len(enc))
		}
	}
}
