package results

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

func manifestJob(t *testing.T, program string) Job {
	t.Helper()
	req := NewRequest(harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		Workload: workload.Single(program),
		Insts:    1000,
	})
	j, err := NewJob(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestManifestID pins the id contract: kind-prefixed, byte-identical to
// the ids earlier coordinators handed out, distinct across submissions
// of the identical grid.
func TestManifestID(t *testing.T) {
	jobs := []Job{manifestJob(t, "gcc"), manifestJob(t, "swim")}
	m, err := NewSweepManifest(jobs)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.ID()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "sweep-") || len(id) != len("sweep-")+manifestIDHexLen {
		t.Fatalf("id = %q, want sweep-<%d hex>", id, manifestIDHexLen)
	}

	// A fixed nonce pins the bytes: an id a client holds keeps naming
	// the same submission across versions.
	for want, g := range map[string]Manifest{
		"sweep-decbdc01bf8a65d8":   {Schema: SchemaVersion, Kind: ManifestKindSweep, Nonce: "0123456789abcdef", Jobs: jobs},
		"explore-1d0ae6cc9bcd68ba": {Schema: SchemaVersion, Kind: ManifestKindExplore, Nonce: "0123456789abcdef", Explore: []byte(`{"insts":1000}`)},
	} {
		if got, err := g.ID(); err != nil || got != want {
			t.Errorf("golden id = %s (%v), want %s", got, err, want)
		}
	}

	// Same grid, new submission (new nonce) → new id: resubmissions are
	// distinct attachable objects even though their members deduplicate.
	m2, err := NewSweepManifest(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if id2, _ := m2.ID(); id2 == id {
		t.Errorf("two submissions share id %s", id)
	}

	// Same nonce and members → same id: replay reconstructs it.
	if id2, _ := m.ID(); id2 != id {
		t.Errorf("ID not deterministic: %s vs %s", id, id2)
	}
}

// TestManifestVerify rejects cross-kind payloads and corrupted member
// keys.
func TestManifestVerify(t *testing.T) {
	jobs := []Job{manifestJob(t, "gcc")}
	m, err := NewSweepManifest(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("valid sweep manifest rejected: %v", err)
	}
	bad := m
	bad.Jobs = []Job{{Key: strings.Repeat("0", 64), Request: jobs[0].Request}}
	if bad.Verify() == nil {
		t.Error("manifest with mismatched job key verified")
	}

	e, err := NewExploreManifest([]byte(`{"insts":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("valid explore manifest rejected: %v", err)
	}
	if eid, _ := e.ID(); !strings.HasPrefix(eid, "explore-") {
		t.Errorf("explore id = %q", eid)
	}
	e.Jobs = jobs
	if e.Verify() == nil {
		t.Error("explore manifest carrying jobs verified")
	}
	if (Manifest{Kind: "mystery"}).Verify() == nil {
		t.Error("unknown kind verified")
	}
}
