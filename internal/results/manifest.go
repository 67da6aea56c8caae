package results

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Manifest is the durable record of one composite submission — a sweep
// or a design-space exploration. It is the canonical list of work the
// service owes the client (content-keyed jobs for a sweep, the
// normalized request for an exploration), and it is what makes composite
// submissions re-attachable: a coordinator that was killed re-registers
// an open manifest and owes its members the content-addressed store
// lacks. A finished submission's manifest is removed; its final reply
// answers a client that polls after the coordinator forgot it.
//
// A manifest's id is content-derived like a run key, but over the
// identity fields *including a per-submission nonce*: two identical
// grids submitted twice are distinct submissions with distinct ids
// (their member runs still deduplicate — member identity stays purely
// content-addressed), while one submission keeps one stable id across
// any number of coordinator restarts.
//
// Fields are declared in key order, so json.Marshal writes the canonical
// encoding the id hashes (TestWireFieldsInKeyOrder).
type Manifest struct {
	// Explore is the normalized exploration request. Explorations are
	// deterministic given the request (strategy seeds included), so the
	// request is the member list: replay re-drives it and every
	// already-evaluated point comes back as a cache hit. The id hashes
	// these bytes as they are, compacted but not re-sorted.
	Explore json.RawMessage `json:"explore,omitempty"`
	// Jobs is the full member list of a sweep, in grid order. Each job
	// carries its wire request, so replay can re-queue members whose
	// results are not in the store yet.
	Jobs []Job `json:"jobs,omitempty"`
	// Kind is "sweep" or "explore"; it doubles as the id prefix.
	Kind string `json:"kind"`
	// Nonce uniquifies this submission.
	Nonce  string `json:"nonce"`
	Schema int    `json:"schema"`
}

// ManifestKindSweep and ManifestKindExplore are the two manifest kinds.
const (
	ManifestKindSweep   = "sweep"
	ManifestKindExplore = "explore"
)

// manifestIDHexLen is how much of the identity hash the client-visible
// id keeps. 16 hex digits (64 bits) over a nonce-salted hash: collisions
// need ~2^32 live submissions.
const manifestIDHexLen = 16

func newNonce() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("results: manifest nonce: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// NewSweepManifest builds the manifest of a sweep submission from its
// member jobs (grid order).
func NewSweepManifest(jobs []Job) (Manifest, error) {
	nonce, err := newNonce()
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{Schema: SchemaVersion, Kind: ManifestKindSweep, Nonce: nonce, Jobs: jobs}, nil
}

// NewExploreManifest builds the manifest of an exploration submission
// from its normalized request JSON.
func NewExploreManifest(request json.RawMessage) (Manifest, error) {
	nonce, err := newNonce()
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{Schema: SchemaVersion, Kind: ManifestKindExplore, Nonce: nonce, Explore: request}, nil
}

// ID derives the stable, client-visible id: "<kind>-" plus the first 16
// hex digits of the SHA-256 of the manifest's canonical encoding, which is
// json.Marshal.
func (m Manifest) ID() (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("results: manifest id: %w", err)
	}
	sum := sha256.Sum256(b)
	return m.Kind + "-" + hex.EncodeToString(sum[:])[:manifestIDHexLen], nil
}

// Keys lists the member content keys of a sweep manifest, in grid
// order.
func (m Manifest) Keys() []string {
	keys := make([]string, len(m.Jobs))
	for i, j := range m.Jobs {
		keys[i] = j.Key
	}
	return keys
}

// Verify checks every member job's key against its request (sweeps) and
// that the manifest has exactly one identity payload. Replay runs this
// before trusting a manifest read back from disk.
func (m Manifest) Verify() error {
	switch m.Kind {
	case ManifestKindSweep:
		if len(m.Jobs) == 0 || m.Explore != nil {
			return fmt.Errorf("results: sweep manifest must carry jobs only")
		}
		for i, j := range m.Jobs {
			if err := j.Verify(); err != nil {
				return fmt.Errorf("results: manifest job [%d]: %w", i, err)
			}
		}
	case ManifestKindExplore:
		if len(m.Explore) == 0 || len(m.Jobs) != 0 {
			return fmt.Errorf("results: explore manifest must carry a request only")
		}
	default:
		return fmt.Errorf("results: unknown manifest kind %q", m.Kind)
	}
	return nil
}
