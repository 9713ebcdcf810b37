package core

import "repro/internal/arch"

// ScoreMiss scores required on the live fabric the way a steering-cache
// miss does, over the fabric view, and returns the selection.
func (m *Manager) ScoreMiss(required arch.Counts) Selection {
	var sel Selection
	m.score(&sel, required, m.liveView())
	return sel
}
