package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"flashmob"
	"flashmob/internal/graph"
	"flashmob/internal/serve"
)

// A checker verifies walk responses once the load has stopped.
type checker interface {
	// add checks or queues one response, given its reply's trajectory
	// hash and, when kept, its raw trajectory array.
	add(q *walkReq, resp *serve.WalkResponse, rp *reply) error
	// finish runs the queued checks, recording each mismatch on r.
	finish(r *run) error
}

// pathsCRC hashes trajectories as the server encodes them: the JSON
// array encoding/json writes, byte for byte.
func pathsCRC(paths [][]flashmob.VID) uint32 {
	b, _ := json.Marshal(paths)
	return crc32.Checksum(b, castagnoli)
}

// refChecker compares every seeded response with a direct
// System.WalkMixed run of the same query on the same build: a mixed
// cohort's trajectories equal the same query walked alone
// (Session.WalkSeeded), so batching references many queries per run
// checks each exactly.
type refChecker struct {
	sys     *flashmob.System
	batch   int
	pending []refItem
}

type refItem struct {
	q   *walkReq
	crc uint32
}

func (c *refChecker) add(q *walkReq, _ *serve.WalkResponse, rp *reply) error {
	c.pending = append(c.pending, refItem{q, rp.crc})
	return nil
}

func (c *refChecker) finish(r *run) error {
	for lo := 0; lo < len(c.pending); lo += c.batch {
		chunk := c.pending[lo:min(lo+c.batch, len(c.pending))]
		cohorts := make([]flashmob.CohortSpec, len(chunk))
		for i, it := range chunk {
			cohorts[i] = flashmob.CohortSpec{
				Algorithm: specFor(it.q.algo), Walkers: uint64(it.q.walkers), Steps: it.q.steps, Seed: it.q.seed,
			}
		}
		res, err := c.sys.WalkMixed(cohorts)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		for i, it := range chunk {
			paths, err := res.Paths(i)
			if err != nil {
				return fmt.Errorf("reference paths: %w", err)
			}
			if pathsCRC(paths) != it.crc {
				r.fail("request %d (%s, %d walkers, %d steps, seed %d): trajectories differ from the direct run",
					it.q.id, it.q.algo, it.q.walkers, it.q.steps, it.q.seed)
			}
		}
	}
	c.pending = nil
	return nil
}

// hopChecker verifies dynamic-graph responses: every DeepWalk hop is an
// edge of its response's epoch (the base graph plus every ingest batch
// published at or before that epoch), and every PageRank position is a
// vertex of the epoch (its restarts teleport, so its hops need not be
// edges). The single writer ingests batches one after another, so a
// batch's edges first become visible in an epoch after the one the
// previous ingest returned (after the epoch current at the start, for
// the first batch). That is the bound the check uses, and not the epoch
// the batch's own ingest returns: the handler reads the current epoch
// after its freeze, and a background compaction may publish another
// epoch in between, so the returned epoch can be later than the one
// that first showed the batch.
type hopChecker struct {
	base    *graph.CSR
	visible map[uint64]uint64 // edge → first epoch it is visible in
	newVert map[flashmob.VID]uint64
}

func edgeKey(u, v flashmob.VID) uint64 { return uint64(u)<<32 | uint64(v) }

// newHopChecker records when each ingested batch became visible, given
// the epoch current before the first ingest.
func newHopChecker(base *graph.CSR, first uint64, ingests []ingestReply, r *run) *hopChecker {
	c := &hopChecker{base: base, visible: map[uint64]uint64{}, newVert: map[flashmob.VID]uint64{}}
	last := first
	for k := range ingests {
		in := &ingests[k]
		r.attempted++
		if in.status != 200 {
			r.fail("ingest %d: status %d", k, in.status)
			continue
		}
		if in.resp.Epoch < last {
			r.fail("ingest %d: epoch %d after epoch %d: the writer's epochs are not monotone", k, in.resp.Epoch, last)
		}
		ep := last + 1
		last = in.resp.Epoch
		visible := func(key uint64) {
			if cur, ok := c.visible[key]; !ok || ep < cur {
				c.visible[key] = ep
			}
		}
		for _, e := range in.edges {
			visible(edgeKey(e[0], e[1]))
			visible(edgeKey(e[1], e[0]))
		}
		for _, v := range in.newVerts {
			if cur, ok := c.newVert[v]; !ok || ep < cur {
				c.newVert[v] = ep
			}
		}
	}
	return c
}

func (c *hopChecker) vertexIn(v flashmob.VID, epoch uint64) bool {
	if v < c.base.NumVertices() {
		return true
	}
	ep, ok := c.newVert[v]
	return ok && ep <= epoch
}

func (c *hopChecker) edgeIn(u, v flashmob.VID, epoch uint64) bool {
	n := c.base.NumVertices()
	if u < n && v < n && c.base.HasEdge(u, v) {
		return true
	}
	ep, ok := c.visible[edgeKey(u, v)]
	return ok && ep <= epoch
}

func (c *hopChecker) add(q *walkReq, resp *serve.WalkResponse, rp *reply) error {
	var paths [][]flashmob.VID
	if err := json.Unmarshal(rp.paths, &paths); err != nil {
		return fmt.Errorf("trajectories: %w", err)
	}
	if len(paths) != q.walkers {
		return fmt.Errorf("%d paths for %d walkers", len(paths), q.walkers)
	}
	for j, p := range paths {
		if len(p) != q.steps+1 {
			return fmt.Errorf("walker %d: path of %d positions for %d steps", j, len(p), q.steps)
		}
		for i, v := range p {
			if !c.vertexIn(v, resp.Epoch) {
				return fmt.Errorf("walker %d: vertex %d is not in epoch %d", j, v, resp.Epoch)
			}
			if i > 0 && q.algo == "deepwalk" && !c.edgeIn(p[i-1], v, resp.Epoch) {
				return fmt.Errorf("walker %d step %d: %d→%d is not an edge of epoch %d", j, i, p[i-1], v, resp.Epoch)
			}
		}
	}
	return nil
}

func (c *hopChecker) finish(*run) error { return nil }
