package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/flash/faultdev"
)

// TestDecoratorTransparent runs a short page-update, and a short
// page-read (which reaches the device's ReadBatch), twice on one seed:
// with and without the timing decorator and store timers. Both passes
// must do the same device work, because tracing may observe the program
// but not change it. The decorator must also see every device operation.
func TestDecoratorTransparent(t *testing.T) {
	const ops = 20_000
	for _, c := range []struct {
		name  string
		setup func(int64, *tracer) (instance, error)
	}{{"page-update", setupPageUpdate}, {"page-read", setupPageRead}} {
		t.Run(c.name, func(t *testing.T) {
			run := func(tr *tracer) *window {
				inst, err := c.setup(7, tr)
				if err != nil {
					t.Fatal(err)
				}
				w, err := inst.measure(stopRule{limits: []int64{ops}})
				if err != nil {
					t.Fatal(err)
				}
				if w.ops < ops {
					t.Fatalf("ran %d ops, want %d", w.ops, ops)
				}
				return w
			}
			plain, traced := run(nil), run(newTracer(true))

			a, b := plain.d.dev, traced.d.dev
			if a != b {
				t.Fatalf("device work differs: untraced %+v, traced %+v", a, b)
			}
			tt := traced.d.trace
			if got := tt.pages[spanDevRead]; got != b.Reads {
				t.Errorf("decorator saw %d page reads, device counted %d", got, b.Reads)
			}
			if got := tt.pages[spanDevProgram]; got != b.Writes {
				t.Errorf("decorator saw %d programs, device counted %d", got, b.Writes)
			}
			if got := tt.calls[spanDevErase]; got != b.Erases {
				t.Errorf("decorator saw %d erases, device counted %d", got, b.Erases)
			}
			if got := tt.pages[spanCoreRead] + tt.pages[spanCoreWrite]; got < ops {
				t.Errorf("store timers saw %d pages, want at least %d", got, ops)
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload", "-seed", "1", "-seconds", "1", "-trace", "0"},
		{"-workload", "page-read", "-seed", "1", "-seconds", "0", "-trace", "0"},
		{"-workload", "page-read", "-seed", "1", "-seconds", "1", "-trace", "2"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}

// TestModelCatchesWrongBytes flips one model bit and requires the
// read-back at the end of a run to report a mismatch, not a failure.
func TestModelCatchesWrongBytes(t *testing.T) {
	inst, err := setupPageRead(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := inst.(*pageRun)
	p.model[len(p.model)/2] ^= 1
	_, err = p.finish()
	var mm *mismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("finish with a corrupted model returned %v, want a model mismatch", err)
	}
}

// TestTypedReadErrorsCount corrupts pages under a set-up page-read
// instance. The store then reports some pages lost, with typed errors in
// the read-back before the crash and, once Recover has dropped the pages
// it cannot read, in the read-back after it. Both must count those pages
// as failures and compare the rest with the model, so the run cannot
// report fail_frac 0.
func TestTypedReadErrorsCount(t *testing.T) {
	inst, err := setupPageRead(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := inst.(*pageRun)
	// Move the store onto a fault-injecting overlay of its chip.
	if err := p.api.Flush(); err != nil {
		t.Fatal(err)
	}
	p.close()
	fd := faultdev.Wrap(p.dev)
	p.dev = fd
	s, err := core.Recover(fd, p.n, p.opts)
	if err != nil {
		t.Fatal(err)
	}
	p.attach(s)
	for ppn := 0; ppn < fd.Params().NumPages(); ppn += 97 {
		fd.Inject(faultdev.Fault{PPN: flash.PPN(ppn), Kind: faultdev.SectorCorrupt})
	}

	e, err := p.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	rep := &report{}
	rep.addEnding(e)
	if rep.Failed == 0 || rep.FailFrac == 0 {
		t.Fatalf("read-backs counted %d failures of %d pages (fail_frac %g), want some", rep.Failed, rep.Attempted, rep.FailFrac)
	}
	if want := 2 * int64(p.n); rep.Attempted != want {
		t.Errorf("read-backs read %d pages, want %d", rep.Attempted, want)
	}
	t.Logf("%d of %d pages failed", rep.Failed, rep.Attempted)
}

// TestResultMatchesBenchmarkJSON runs a short untraced and a short traced
// page-read and requires their results to hold exactly the end-to-end and
// the per-layer metrics BENCHMARK.json names, with the units it gives.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	o := options{workload: "page-read", seed: 1, seconds: 1}
	for _, c := range []struct {
		trace bool
		want  []named
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		o.trace = c.trace
		rep := &report{Workload: o.workload}
		run := runUntraced
		if c.trace {
			run = runTraced
		}
		res, err := run(workloads[o.workload], o, rep)
		if err != nil {
			t.Fatal(err)
		}
		var got []named
		for name, m := range res.Metrics {
			got = append(got, named{name, m.Unit})
		}
		cmp := func(a, b named) int { return strings.Compare(a.Name, b.Name) }
		slices.SortFunc(got, cmp)
		want := slices.SortedFunc(slices.Values(c.want), cmp)
		if !slices.Equal(got, want) {
			t.Errorf("trace %v: result metrics %v, BENCHMARK.json names %v", c.trace, got, want)
		}
	}
}
