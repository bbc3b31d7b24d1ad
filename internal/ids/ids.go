// Package ids defines the identifier types shared across the storage-QoS
// system: files, resource managers (RMs), clients (DFSCs), users and
// requests. Keeping them in one leaf package lets the protocol, metadata,
// workload and metrics layers share vocabulary without import cycles.
package ids

import "fmt"

// FileID identifies a file in the catalog. IDs are dense, starting at 0,
// which lets per-file tables be plain slices.
type FileID int32

// RMID identifies a Resource Manager (storage provider). The paper numbers
// RMs 1..16; RMID follows that convention (1-based) so experiment output
// lines up with the paper's tables.
type RMID int32

// DFSCID identifies a Distributed File System Client. The paper deploys 8.
type DFSCID int32

// UserID identifies a simulated user issuing requests through a DFSC.
type UserID int32

// RequestID identifies a single file-access request, unique per run.
type RequestID int64

// ReplicationID identifies a dynamic replication transfer, unique per run.
type ReplicationID int64

// TenantID identifies the tenant (organisation, project, account) a
// client acts for. Tenant 0 is the sentinel "untenanted" identity —
// legacy clients that never learned about tenancy — which quota
// enforcement treats as uncapped and the wire layer encodes as the
// absent tenant slot. Real tenants are numbered from 1.
type TenantID int32

// None* are sentinel values meaning "absent".
const (
	NoneFile   FileID   = -1
	NoneRM     RMID     = -1
	NoneTenant TenantID = 0
)

func (f FileID) String() string        { return fmt.Sprintf("file%d", int32(f)) }
func (r RMID) String() string          { return fmt.Sprintf("RM%d", int32(r)) }
func (d DFSCID) String() string        { return fmt.Sprintf("DFSC%d", int32(d)) }
func (u UserID) String() string        { return fmt.Sprintf("user%d", int32(u)) }
func (r RequestID) String() string     { return fmt.Sprintf("req%d", int64(r)) }
func (r ReplicationID) String() string { return fmt.Sprintf("rep%d", int64(r)) }
func (t TenantID) String() string      { return fmt.Sprintf("tenant%d", int32(t)) }

// Valid reports whether the id is a real file (not the sentinel).
func (f FileID) Valid() bool { return f >= 0 }

// Valid reports whether the id is a real RM (not the sentinel).
func (r RMID) Valid() bool { return r >= 0 }

// Valid reports whether the id names a real tenant (not the untenanted
// sentinel).
func (t TenantID) Valid() bool { return t > 0 }
