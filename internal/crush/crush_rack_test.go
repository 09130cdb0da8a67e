package crush

import (
	"bytes"
	"encoding/json"
	"testing"
)

// rack128 is the tentpole topology: 16 racks × 8 OSDs (1 OSD per host).
func rack128() *Map { return BuildRacks(16, 8, 1, 1.0) }

func TestBuildRacksShape(t *testing.T) {
	m := rack128()
	devs := m.Devices()
	if len(devs) != 128 {
		t.Fatalf("got %d devices, want 128", len(devs))
	}
	for i, id := range devs {
		if id != ItemID(i) {
			t.Fatalf("device ids not dense: devs[%d] = %d", i, id)
		}
	}
	// Rack-major ids: device id/8 is its rack index.
	for _, id := range devs {
		rack := m.DomainOf(id, "rack")
		if rack == InvalidItem {
			t.Fatalf("device %d has no rack domain", id)
		}
		wantRack := ItemID(-2 - int(id)/8)
		if rack != wantRack {
			t.Fatalf("device %d in rack %d, want %d (rack-major layout)", id, rack, wantRack)
		}
		if host := m.DomainOf(id, "host"); host == InvalidItem {
			t.Fatalf("device %d has no host domain", id)
		}
	}
	if m.DomainOf(999, "rack") != InvalidItem {
		t.Fatalf("unknown device should have no rack domain")
	}
	if m.DomainOf(0, "row") != InvalidItem {
		t.Fatalf("absent bucket type should yield no domain")
	}
}

// TestRackPlacementProperties pins the two invariants the scale-out assembly
// leans on: every acting set has the full replica count, and its members
// land on pairwise-distinct racks.
func TestRackPlacementProperties(t *testing.T) {
	m := rack128()
	for _, n := range []int{2, 3} {
		for x := uint32(0); x < 512; x++ {
			acting := m.Select(x, n)
			if len(acting) != n {
				t.Fatalf("Select(%d, %d) returned %d replicas", x, n, len(acting))
			}
			racks := make(map[ItemID]bool, n)
			seen := make(map[ItemID]bool, n)
			for _, id := range acting {
				if seen[id] {
					t.Fatalf("Select(%d, %d) repeated device %d", x, n, id)
				}
				seen[id] = true
				rack := m.DomainOf(id, "rack")
				if rack == InvalidItem {
					t.Fatalf("Select(%d, %d) placed on rackless device %d", x, n, id)
				}
				if racks[rack] {
					t.Fatalf("Select(%d, %d) = %v put two replicas in rack %d", x, n, acting, rack)
				}
				racks[rack] = true
			}
		}
	}
}

// TestRackPlacementSpreadsPrimaries guards against a degenerate straw2 that
// funnels primaries into few racks: over many PG seeds every rack must own
// at least one primary.
func TestRackPlacementSpreadsPrimaries(t *testing.T) {
	m := rack128()
	perRack := make(map[ItemID]int)
	const pgs = 1024
	for x := uint32(0); x < pgs; x++ {
		acting := m.Select(x, 3)
		if len(acting) == 0 {
			t.Fatalf("Select(%d, 3) empty", x)
		}
		perRack[m.DomainOf(acting[0], "rack")]++
	}
	if len(perRack) != 16 {
		t.Fatalf("primaries landed on %d racks, want all 16", len(perRack))
	}
	for rack, n := range perRack {
		// Uniform share is 64; even a skewed hash should stay within 3x.
		if n > 3*pgs/16 {
			t.Fatalf("rack %d owns %d/%d primaries — pathological skew", rack, n, pgs)
		}
	}
}

// TestMapMarshalDeterministic: marshalling the same hierarchy twice — and
// marshalling an Unmarshal-round-tripped copy — must yield identical bytes.
// Go maps iterate in random order; this is the class of bug PR 6 fixed and
// the encoder must stay immune to it.
func TestMapMarshalDeterministic(t *testing.T) {
	m := rack128()
	first, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for i := 0; i < 16; i++ {
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal #%d: %v", i, err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("marshal #%d produced different bytes", i)
		}
	}
	var rt Map
	if err := json.Unmarshal(first, &rt); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	rtBytes, err := json.Marshal(&rt)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(first, rtBytes) {
		t.Fatalf("round-tripped map marshals to different bytes")
	}
}

// TestPlacementStableUnderRemarshal: a map that has been through
// marshal → unmarshal → marshal → unmarshal must place every PG exactly
// where the original did, for all replica counts the cluster uses.
func TestPlacementStableUnderRemarshal(t *testing.T) {
	orig := rack128()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var once Map
	if err := json.Unmarshal(data, &once); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	data2, err := json.Marshal(&once)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	var twice Map
	if err := json.Unmarshal(data2, &twice); err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	for _, n := range []int{1, 2, 3} {
		for x := uint32(0); x < 512; x++ {
			want := orig.Select(x, n)
			for pass, m := range []*Map{&once, &twice} {
				got := m.Select(x, n)
				if len(got) != len(want) {
					t.Fatalf("pass %d: Select(%d, %d) len %d, want %d", pass, x, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pass %d: Select(%d, %d)[%d] = %d, want %d", pass, x, n, i, got[i], want[i])
					}
				}
			}
		}
	}
	// DomainOf must survive the trip too — the scale-out assembly uses it to
	// home objects to racks.
	for dev := ItemID(0); dev < 128; dev++ {
		if got, want := twice.DomainOf(dev, "rack"), orig.DomainOf(dev, "rack"); got != want {
			t.Fatalf("device %d rack %d after round trip, want %d", dev, got, want)
		}
	}
}

func TestUnmarshalRejectsCorruptMaps(t *testing.T) {
	dup := `{"root":-1,"choose_retries":50,"buckets":[{"ID":-1,"Name":"default","Type":"root","Alg":0,"Items":[0]},{"ID":-1,"Name":"dup","Type":"root","Alg":0,"Items":[]}],"devices":[{"ID":0,"Weight":1,"Out":false}]}`
	var m Map
	if err := json.Unmarshal([]byte(dup), &m); err == nil {
		t.Fatalf("duplicate bucket id accepted")
	}
	dupDev := `{"root":-1,"choose_retries":50,"buckets":[{"ID":-1,"Name":"default","Type":"root","Alg":0,"Items":[0]}],"devices":[{"ID":0,"Weight":1,"Out":false},{"ID":0,"Weight":1,"Out":false}]}`
	var m2 Map
	if err := json.Unmarshal([]byte(dupDev), &m2); err == nil {
		t.Fatalf("duplicate device id accepted")
	}
	noRoot := `{"root":-7,"choose_retries":50,"buckets":[],"devices":[]}`
	var m3 Map
	if err := json.Unmarshal([]byte(noRoot), &m3); err == nil {
		t.Fatalf("dangling root accepted")
	}
}

// TestCloneKeepsRackTopology: Clone must preserve placement and domains —
// the monitor clones the map per epoch.
func TestCloneKeepsRackTopology(t *testing.T) {
	m := rack128()
	c := m.Clone()
	for x := uint32(0); x < 256; x++ {
		want, got := m.Select(x, 3), c.Select(x, 3)
		if len(want) != len(got) {
			t.Fatalf("clone Select(%d) len %d, want %d", x, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("clone Select(%d)[%d] = %d, want %d", x, i, got[i], want[i])
			}
		}
	}
	for dev := ItemID(0); dev < 128; dev++ {
		if c.DomainOf(dev, "rack") != m.DomainOf(dev, "rack") {
			t.Fatalf("clone lost rack domain of device %d", dev)
		}
	}
}

// FuzzUnmarshalJSON: the encoded map is the crush form that crosses process
// boundaries, so arbitrary input must never panic, and a map it accepts
// marshals to a fixed point — its encoding decodes and re-encodes to itself.
// Run with: go test -fuzz=FuzzUnmarshalJSON ./internal/crush
func FuzzUnmarshalJSON(f *testing.F) {
	for _, m := range []*Map{BuildUniform(2, 1, 1.0), BuildRacks(2, 2, 1, 0.5), NewMap()} {
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"root":-1,"buckets":[null],"devices":[null]}`))
	f.Add([]byte(`{"root":-1,"buckets":[{"ID":-1,"Type":"root","Items":[-1]}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m Map
		if json.Unmarshal(raw, &m) != nil {
			return
		}
		once, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("accepted map does not marshal: %v", err)
		}
		var again Map
		if err := json.Unmarshal(once, &again); err != nil {
			t.Fatalf("own encoding %s rejected: %v", once, err)
		}
		if twice, _ := json.Marshal(&again); !bytes.Equal(once, twice) {
			t.Fatalf("not a fixed point:\n %s\n %s", once, twice)
		}
	})
}
