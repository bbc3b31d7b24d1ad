package catalog

import (
	"fmt"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// Placement maps each file to the set of RMs holding a replica. The paper's
// evaluation "replicate[s] each of them as three replicas and then
// distribute[s] these three replicas randomly into 16 RMs"; Placement is
// the initial (static) state the Metadata Manager is seeded with.
type Placement struct {
	replicas map[ids.FileID][]ids.RMID
}

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{replicas: make(map[ids.FileID][]ids.RMID)}
}

// StaticRandom places degree replicas of every catalog file uniformly at
// random on distinct RMs drawn from rms. It returns an error if degree
// exceeds the number of RMs.
func StaticRandom(c *Catalog, rms []ids.RMID, degree int, src *rng.Source) (*Placement, error) {
	if degree <= 0 {
		return nil, fmt.Errorf("catalog: replica degree must be positive, got %d", degree)
	}
	if degree > len(rms) {
		return nil, fmt.Errorf("catalog: replica degree %d exceeds %d RMs", degree, len(rms))
	}
	p := NewPlacement()
	scratch := make([]ids.RMID, len(rms))
	for _, f := range c.Files() {
		copy(scratch, rms)
		// Partial Fisher-Yates: the first `degree` entries after shuffling
		// are a uniform sample of distinct RMs.
		for i := 0; i < degree; i++ {
			j := i + src.Intn(len(scratch)-i)
			scratch[i], scratch[j] = scratch[j], scratch[i]
		}
		set := make([]ids.RMID, degree)
		copy(set, scratch[:degree])
		p.replicas[f.ID] = set
	}
	return p, nil
}

// Holders returns the RMs holding a replica of file id. The returned slice
// is a copy and safe to retain.
func (p *Placement) Holders(id ids.FileID) []ids.RMID {
	return p.AppendHolders(make([]ids.RMID, 0, p.Degree(id)), id)
}

// AppendHolders appends the RMs holding a replica of file id to dst: Holders
// into memory the caller owns.
func (p *Placement) AppendHolders(dst []ids.RMID, id ids.FileID) []ids.RMID {
	return append(dst, p.replicas[id]...)
}

// Has reports whether rm holds a replica of file id.
func (p *Placement) Has(id ids.FileID, rm ids.RMID) bool {
	for _, h := range p.replicas[id] {
		if h == rm {
			return true
		}
	}
	return false
}

// Degree returns the current replica count for file id.
func (p *Placement) Degree(id ids.FileID) int { return len(p.replicas[id]) }

// Add records a new replica of file id on rm. Adding an existing replica is
// an error: the replication protocol's destination endpoint must have
// rejected the transfer instead.
func (p *Placement) Add(id ids.FileID, rm ids.RMID) error {
	if p.Has(id, rm) {
		return fmt.Errorf("catalog: %v already holds %v", rm, id)
	}
	p.replicas[id] = append(p.replicas[id], rm)
	return nil
}

// Remove deletes the replica of file id on rm. Removing the last replica is
// refused: it would make the file unreachable.
func (p *Placement) Remove(id ids.FileID, rm ids.RMID) error {
	hs := p.replicas[id]
	if len(hs) <= 1 {
		return fmt.Errorf("catalog: refusing to remove last replica of %v", id)
	}
	for i, h := range hs {
		if h == rm {
			p.replicas[id] = append(hs[:i], hs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("catalog: %v holds no replica of %v", rm, id)
}

// FilesOn returns the IDs of all files with a replica on rm, in ascending
// file-ID order is NOT guaranteed; callers needing determinism must sort.
func (p *Placement) FilesOn(rm ids.RMID) []ids.FileID {
	var out []ids.FileID
	for id, hs := range p.replicas {
		for _, h := range hs {
			if h == rm {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// FilesByRM inverts the placement in one pass: every RM holding at least
// one replica maps to the files it holds. It equals calling FilesOn for
// each RM — which walks the whole replica map per call — and, like
// FilesOn, guarantees no order within a list.
func (p *Placement) FilesByRM() map[ids.RMID][]ids.FileID {
	out := make(map[ids.RMID][]ids.FileID)
	for id, hs := range p.replicas {
		for _, h := range hs {
			out[h] = append(out[h], id)
		}
	}
	return out
}

// Files returns the IDs of all files with at least one replica. Order is
// NOT guaranteed; callers needing determinism must sort.
func (p *Placement) Files() []ids.FileID {
	out := make([]ids.FileID, 0, len(p.replicas))
	for id := range p.replicas {
		out = append(out, id)
	}
	return out
}

// NumFiles returns the number of files with at least one replica.
func (p *Placement) NumFiles() int { return len(p.replicas) }

// Clone returns a deep copy, used to reset state between experiment runs.
func (p *Placement) Clone() *Placement {
	q := NewPlacement()
	for id, hs := range p.replicas {
		cp := make([]ids.RMID, len(hs))
		copy(cp, hs)
		q.replicas[id] = cp
	}
	return q
}

// Validate checks structural invariants: every file has at least one
// replica and no RM appears twice for the same file.
func (p *Placement) Validate() error {
	for id, hs := range p.replicas {
		if len(hs) == 0 {
			return fmt.Errorf("catalog: %v has zero replicas", id)
		}
		seen := make(map[ids.RMID]bool, len(hs))
		for _, h := range hs {
			if seen[h] {
				return fmt.Errorf("catalog: %v has duplicate replica on %v", id, h)
			}
			seen[h] = true
		}
	}
	return nil
}
