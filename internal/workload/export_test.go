package workload

import "dfsqos/internal/ids"

// FileCounts returns how many requests target each file (popularity audit).
func (p *Pattern) FileCounts() map[ids.FileID]int {
	out := make(map[ids.FileID]int)
	for _, r := range p.Requests {
		out[r.File]++
	}
	return out
}
