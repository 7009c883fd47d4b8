package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/figures"
)

// TestQuickGolden pins every quick-scale figure and ablation: the stdout of
// `stbench -all` followed by `stbench -ablate` must match testdata/quick.txt
// byte for byte. A change that moves a figure number regenerates the file
// with
//
//	(go run ./cmd/stbench -all; go run ./cmd/stbench -ablate) > cmd/stbench/testdata/quick.txt
//
// and says why in CHANGES.md. CI holds the full-scale output to
// results_full.txt the same way.
func TestQuickGolden(t *testing.T) {
	var got bytes.Buffer
	if err := writeFigures(&got, io.Discard, allFigures, figures.Quick, nil, figures.Opts{}); err != nil {
		t.Fatal(err)
	}
	if err := writeAblations(&got, figures.Quick); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from testdata/quick.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
