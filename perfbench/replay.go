package main

import (
	"bytes"
	"fmt"
	"time"

	"pdl/internal/diff"
	"pdl/internal/flash/ecc"
)

// Kernel replay: the diff codec and the ECC are timed on the page images
// the traced run captured, after the window, one kernel at a time.
const (
	replayRounds  = 5                     // timed rounds; the median is reported
	replayMinTime = 20 * time.Millisecond // each round replays the sample at least this long
)

// sink keeps replayed results live so the calls cannot be optimised out.
var sink int

// replayKernels times diff.Compute/Apply on the captured (old, new) page
// pairs and ecc.ComputePage/CorrectPage on the captured read images, and
// checks each kernel's output on every input first.
func replayKernels(s *kernelSampler) (metrics, map[string]string, error) {
	m := metrics{}
	notes := map[string]string{}
	diffs := make([]diff.Differential, len(s.pairs))
	targets := make([][]byte, len(s.pairs))
	var encoded int
	for i, p := range s.pairs {
		d, err := diff.Compute(0, 1, p[0], p[1])
		if err != nil {
			return nil, nil, fmt.Errorf("diff replay: %w", err)
		}
		targets[i] = append([]byte(nil), p[0]...)
		if err := d.Apply(targets[i]); err != nil {
			return nil, nil, fmt.Errorf("diff replay: %w", err)
		}
		if !bytes.Equal(targets[i], p[1]) {
			return nil, nil, mismatchf("diff replay: Apply(Compute(old, new), old) != new on pair %d", i)
		}
		diffs[i] = d
		encoded += d.EncodedSize()
	}
	codes := make([][]byte, len(s.reads))
	scratch := make([][]byte, len(s.reads))
	for i, img := range s.reads {
		c, err := ecc.ComputePage(img)
		if err != nil {
			return nil, nil, fmt.Errorf("ecc replay: %w", err)
		}
		codes[i] = c
		scratch[i] = append([]byte(nil), img...)
		if n, err := ecc.CorrectPage(scratch[i], c); err != nil || n != 0 {
			return nil, nil, mismatchf("ecc replay: clean page %d reported %d corrections (%v)", i, n, err)
		}
	}

	m.set("diff.compute.ns", timeKernel(len(s.pairs), func(i int) {
		d, _ := diff.Compute(0, 1, s.pairs[i][0], s.pairs[i][1])
		sink += len(d.Ranges)
	}), "ns/call")
	m.set("diff.apply.ns", timeKernel(len(diffs), func(i int) {
		// Applying onto the already-updated image rewrites the same
		// bytes, so every repetition does the same work.
		if diffs[i].Apply(targets[i]) == nil {
			sink++
		}
	}), "ns/call")
	m.set("diff.encoded_bytes", ratio(float64(encoded), float64(len(diffs))), "B/diff")
	m.set("ecc.compute.ns_per_page", timeKernel(len(s.reads), func(i int) {
		c, _ := ecc.ComputePage(s.reads[i])
		sink += len(c)
	}), "ns/page")
	m.set("ecc.correct.ns_per_page", timeKernel(len(s.reads), func(i int) {
		n, _ := ecc.CorrectPage(scratch[i], codes[i])
		sink += n
	}), "ns/page")
	if len(s.pairs) == 0 {
		notes["diff.compute.ns"] = "no (old, new) page pair of a sampled pid was captured"
		notes["diff.apply.ns"] = notes["diff.compute.ns"]
		notes["diff.encoded_bytes"] = notes["diff.compute.ns"]
	}
	if len(s.reads) == 0 {
		notes["ecc.compute.ns_per_page"] = "no read image of a sampled pid was captured"
		notes["ecc.correct.ns_per_page"] = notes["ecc.compute.ns_per_page"]
	}
	return m, notes, nil
}

// timeKernel runs fn over inputs 0..n-1, repeating the sweep until a
// round lasts replayMinTime, and returns the median ns per call over
// replayRounds rounds.
func timeKernel(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	perCall := make([]float64, 0, replayRounds)
	for range replayRounds {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < replayMinTime {
			for i := range n {
				fn(i)
			}
			calls += n
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(perCall)
}
