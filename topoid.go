package repro

import "repro/internal/topo"

// topoID converts a public node identifier into the internal type.
func topoID(id int) topo.NodeID { return topo.NodeID(id) }

// PickPolluter runs one clean round on a scratch copy of the deployment's
// configuration and returns a node ID suitable as a pollution attacker for
// the cluster protocol: a cluster head whose announce path reaches the base
// station. Returns -1 when none qualifies (e.g. a disconnected deployment).
//
// The scratch run uses the same seed, so the returned head also exists when
// the caller re-deploys with identical Options and an attack enabled.
func PickPolluter(o Options, needDirectChild bool) (int, error) {
	dep, err := NewDeployment(o)
	if err != nil {
		return -1, err
	}
	p, err := dep.cluster(ClusterOptions{})
	if err != nil {
		return -1, err
	}
	if _, err := p.Run(1); err != nil {
		return -1, err
	}
	return int(p.PickAttacker(needDirectChild)), nil
}
