package core

import (
	"testing"

	"repro/internal/message"
)

// TestDebugClusterDiagnostics prints the internal pipeline state; it never
// fails and exists to diagnose loss sources during development.
func TestDebugClusterDiagnostics(t *testing.T) {
	env, p := run(t, 500, 9, true, nil)
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	heads := p.Heads()
	viable, solved, rooted := 0, 0, 0
	memberTotal := 0
	incompleteF, incompleteMask := 0, 0
	for _, h := range heads {
		st := &p.nodes[h]
		if !viableCluster(st) {
			continue
		}
		viable++
		memberTotal += len(st.roster.Entries)
		if _, _, _, ok := p.solveCluster(st); ok {
			solved++
		} else {
			m := len(st.roster.Entries)
			full := message.FullMask(m)
			missing, badMask := 0, 0
			for i := 0; i < m; i++ {
				a, ok := st.fSeenAt(i)
				if !ok {
					missing++
				} else if a.Mask != full {
					badMask++
				}
			}
			if missing > 0 {
				incompleteF++
			}
			if badMask > 0 {
				incompleteMask++
			}
			if viable-solved <= 3 {
				t.Logf("head %d m=%d missingF=%d badMask=%d", h, m, missing, badMask)
			}
		}
		if p.rootedAtBS(h) {
			rooted++
		}
	}
	t.Logf("heads=%d viable=%d solved=%d rooted=%d avgMembers=%.1f", len(heads), viable, solved, rooted,
		float64(memberTotal)/float64(max(viable, 1)))
	t.Logf("failures: missingF=%d badMask=%d", incompleteF, incompleteMask)
	t.Logf("result: %+v acc=%.3f", res, res.Accuracy())
	t.Logf("bytesByKind=%v", env.Rec.BytesByKind())
}
