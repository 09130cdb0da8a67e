package doceph

import (
	"reflect"
	"testing"
)

// chaosOpts keeps the chaos runs CI-sized: the default plan scales its
// windows to the duration, so the shape is preserved.
func chaosOpts() Options {
	return Options{Duration: 30 * Second, Threads: 4, ObjectBytes: 256 << 10, Seed: 42}
}

// TestChaosRunCompletes is the headline robustness check: under the full
// default fault plan, both deployments finish the run with every op resolved
// (success or typed error — nothing hung past the driver's horizon) and
// every verified read matching the written payload.
func TestChaosRunCompletes(t *testing.T) {
	r, err := RunChaos(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []FaultRun{r.Baseline, r.DoCeph} {
		if m.Ops == 0 {
			t.Fatalf("%s: no ops issued", m.Mode)
		}
		if m.IntegrityChecked == 0 {
			t.Fatalf("%s: nothing verified", m.Mode)
		}
		if m.IntegrityOK != m.IntegrityChecked {
			t.Fatalf("%s: integrity %d/%d", m.Mode, m.IntegrityOK, m.IntegrityChecked)
		}
		if m.InjectedEvents == 0 {
			t.Fatalf("%s: fault plan injected nothing", m.Mode)
		}
		if m.DroppedFrames == 0 || m.SessionResets == 0 {
			t.Fatalf("%s: drop window had no effect (frames=%d resets=%d)",
				m.Mode, m.DroppedFrames, m.SessionResets)
		}
		if m.BitRotObjects == 0 {
			t.Fatalf("%s: bit-rot corrupted nothing", m.Mode)
		}
		if m.ScrubErrors == 0 {
			t.Fatalf("%s: scrub missed the bit-rot", m.Mode)
		}
	}
	// The DPU faults only exist in DoCeph mode.
	if r.DoCeph.DMAErrors == 0 {
		t.Fatal("doceph: DMA fault window injected no errors")
	}
	if r.Baseline.DMAErrors != 0 {
		t.Fatal("baseline: phantom DMA errors")
	}
}

// TestChaosDeterminism asserts the reproducibility contract: the same seed
// and the same plan produce byte-identical results across two full runs.
func TestChaosDeterminism(t *testing.T) {
	opts := Options{Duration: 12 * Second, Threads: 4, ObjectBytes: 256 << 10, Seed: 7}
	a, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed + plan diverged:\nrun1: %+v\nrun2: %+v", a, b)
	}
}
