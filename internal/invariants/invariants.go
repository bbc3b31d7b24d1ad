// Package invariants checks the QoS promise as a set of identities over a
// deployment's nodes: every RM's ledgers equal its live reservations and
// firm admission never over-commits a disk (rm.RM.Check), nothing is held
// once a workload is over, and the metadata manager's replica map agrees
// with the files the RMs hold.
//
// The DES tests run Check after every request and once at the horizon;
// every live.Local test runs it at rest when it tears down, and so does
// examples/livecluster. Experiment and benchmark runs never call it.
package invariants

import (
	"errors"
	"fmt"

	"dfsqos/internal/ids"
	"dfsqos/internal/rm"
)

// Mapper is what the cross-node pass reads of a metadata manager; the
// single mm.Manager and mm.ShardedManager both are one.
type Mapper interface {
	Validate() error
	Lookup(file ids.FileID) []ids.RMID
	ReplicaCount(file ids.FileID) int
}

// System is one deployment as Check sees it.
type System struct {
	// RMs are the resource managers to check: for a live cluster, those
	// still serving.
	RMs []*rm.RM
	// Firm says every admission is firm, so each RM's reservations must
	// fit its capacity × oversubscription.
	Firm bool
	// AtRest says the workload is over: no RM may hold a reservation or
	// any allocated bandwidth.
	AtRest bool
	// Mapper, when set, adds the cross-node pass over files 0..Files-1:
	// the replica map validates, every file has between 1 and MaxReplicas
	// replicas (committed plus pending), and every holder the map names is
	// one of RMs and holds the file.
	Mapper      Mapper
	Files       int
	MaxReplicas int
}

// Check runs every check on s and returns every violation, or nil.
func Check(s System) error {
	var errs []error
	byID := make(map[ids.RMID]*rm.RM, len(s.RMs))
	for _, r := range s.RMs {
		id := r.Info().ID
		byID[id] = r
		if err := r.Check(s.Firm); err != nil {
			errs = append(errs, err)
		}
		if n, bw := r.ActiveReservations(), r.Allocated(); s.AtRest && (n != 0 || bw != 0) {
			errs = append(errs, fmt.Errorf("%v holds %d reservation(s), %v allocated, at rest", id, n, bw))
		}
	}
	if s.Mapper == nil {
		return errors.Join(errs...)
	}
	if err := s.Mapper.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("replica map: %w", err))
	}
	for f := ids.FileID(0); int(f) < s.Files; f++ {
		if n := s.Mapper.ReplicaCount(f); n < 1 || n > s.MaxReplicas {
			errs = append(errs, fmt.Errorf("%v has %d replica(s), want 1..%d", f, n, s.MaxReplicas))
		}
		for _, h := range s.Mapper.Lookup(f) {
			if r, ok := byID[h]; !ok || !r.HasFile(f) {
				errs = append(errs, fmt.Errorf("the MM maps %v on %v, which does not hold it", f, h))
			}
		}
	}
	return errors.Join(errs...)
}
