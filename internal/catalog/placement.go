package catalog

import (
	"fmt"
	"maps"
	"slices"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// Placement maps each file to the set of RMs holding a replica. The paper's
// evaluation "replicate[s] each of them as three replicas and then
// distribute[s] these three replicas randomly into 16 RMs"; Placement is
// the initial (static) state the Metadata Manager is seeded with.
//
// Each file's holder list is kept in ascending RM order and is never
// modified once stored: Add and Remove store a new list. So Holders lends
// the stored list itself, and a reader may keep it, and read it after the
// lock it was read under is released, while the placement changes.
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
		set := slices.Clone(scratch[:degree])
		slices.Sort(set)
		p.replicas[f.ID] = set
	}
	return p, nil
}

// Holders returns the RMs holding a replica of file id, in ascending
// order. The slice is the placement's own and is never modified: a later
// Add or Remove stores a new one. The caller must not modify it either;
// its capacity is clipped to its length, so an append copies.
func (p *Placement) Holders(id ids.FileID) []ids.RMID {
	return slices.Clip(p.replicas[id])
}

// AppendHolders appends the RMs holding a replica of file id to dst: Holders
// into memory the caller owns.
func (p *Placement) AppendHolders(dst []ids.RMID, id ids.FileID) []ids.RMID {
	return append(dst, p.replicas[id]...)
}

// Has reports whether rm holds a replica of file id.
func (p *Placement) Has(id ids.FileID, rm ids.RMID) bool {
	_, found := slices.BinarySearch(p.replicas[id], rm)
	return found
}

// Degree returns the current replica count for file id.
func (p *Placement) Degree(id ids.FileID) int { return len(p.replicas[id]) }

// Add records a new replica of file id on rm. Adding an existing replica is
// an error: the replication protocol's destination endpoint must have
// rejected the transfer instead.
func (p *Placement) Add(id ids.FileID, rm ids.RMID) error {
	hs := p.replicas[id]
	i, found := slices.BinarySearch(hs, rm)
	if found {
		return fmt.Errorf("catalog: %v already holds %v", rm, id)
	}
	next := make([]ids.RMID, len(hs)+1)
	copy(next, hs[:i])
	next[i] = rm
	copy(next[i+1:], hs[i:])
	p.replicas[id] = next
	return nil
}

// Remove deletes the replica of file id on rm. Removing the last replica is
// refused: it would make the file unreachable.
func (p *Placement) Remove(id ids.FileID, rm ids.RMID) error {
	hs := p.replicas[id]
	if len(hs) <= 1 {
		return fmt.Errorf("catalog: refusing to remove last replica of %v", id)
	}
	i, found := slices.BinarySearch(hs, rm)
	if !found {
		return fmt.Errorf("catalog: %v holds no replica of %v", rm, id)
	}
	p.replicas[id] = slices.Concat(hs[:i], hs[i+1:])
	return nil
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

// Clone returns an independent copy, used to reset state between
// experiment runs. The two share holder lists, which neither modifies.
func (p *Placement) Clone() *Placement {
	return &Placement{replicas: maps.Clone(p.replicas)}
}

// Validate checks structural invariants: every file has at least one
// replica, and its holders ascend strictly, so no RM appears twice.
func (p *Placement) Validate() error {
	for id, hs := range p.replicas {
		if len(hs) == 0 {
			return fmt.Errorf("catalog: %v has zero replicas", id)
		}
		for i := 1; i < len(hs); i++ {
			if hs[i] <= hs[i-1] {
				return fmt.Errorf("catalog: %v holders not strictly ascending at %v", id, hs[i])
			}
		}
	}
	return nil
}
