package nosql

import "fmt"

// taskKind distinguishes background work items.
type taskKind int

const (
	taskFlush taskKind = iota + 1
	taskCompaction
)

// backgroundTask is a unit of deferred disk+CPU work: flushing a
// memtable to disk or merging SSTables. Tasks are drained by the
// engine's background machinery as virtual time advances; until a
// compaction completes, its input tables stay live and keep inflating
// read amplification — the central feedback loop of the paper's
// compaction story.
type backgroundTask struct {
	kind        taskKind
	inputs      []*ssTable // compaction inputs (claimed, still readable)
	output      *ssTable   // pre-computed merged output (visible on completion)
	outputLevel int
	diskBytes   float64 // total disk traffic: read inputs + write output
	remaining   float64 // disk bytes left to process
	cpuSeconds  float64 // merge CPU, charged as the task progresses
	startedAt   float64 // virtual time the task was enqueued (span tracing)
}

// compactionStrategy decides which SSTables to merge and when, after
// flushes and task completions.
type compactionStrategy interface {
	// Plan inspects the engine's table set and returns zero or more new
	// compaction tasks. Claimed inputs are marked compacting.
	Plan(e *Engine) []*backgroundTask
}

// sizeTieredStrategy implements Cassandra's SizeTieredCompactionStrategy:
// whenever minThreshold similarly-sized tables exist, merge them
// (Section 2.2.2). Reads may need to consult every live table.
type sizeTieredStrategy struct {
	// minThreshold is the number of similar-sized tables that triggers a
	// merge; Cassandra defaults to 4, ScyllaDB effectively compacts more
	// eagerly (per-flush), modeled as a lower threshold.
	minThreshold int
	// maxThreshold caps how many tables one task may merge.
	maxThreshold int
}

var _ compactionStrategy = (*sizeTieredStrategy)(nil)

func (s *sizeTieredStrategy) Plan(e *Engine) []*backgroundTask {
	var candidates []*ssTable
	for _, t := range e.tables.tables {
		if !t.compacting {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) < s.minThreshold {
		return nil
	}

	// Bucket by size: tables within [avg/2, 2*avg] of a bucket's running
	// average share the bucket, mirroring STCS's bucket_low/bucket_high.
	type bucket struct {
		tables []*ssTable
		avg    float64
	}
	var buckets []*bucket
nextTable:
	for _, t := range candidates {
		for _, b := range buckets {
			if t.Bytes() >= b.avg/2 && t.Bytes() <= b.avg*2 {
				b.tables = append(b.tables, t)
				b.avg += (t.Bytes() - b.avg) / float64(len(b.tables))
				continue nextTable
			}
		}
		buckets = append(buckets, &bucket{tables: []*ssTable{t}, avg: t.Bytes()})
	}

	var tasks []*backgroundTask
	for _, b := range buckets {
		if len(b.tables) < s.minThreshold {
			continue
		}
		inputs := b.tables
		if len(inputs) > s.maxThreshold {
			inputs = inputs[:s.maxThreshold]
		}
		tasks = append(tasks, e.newCompactionTask(inputs, 0))
	}
	return tasks
}

// leveledStrategy implements LeveledCompactionStrategy: L0 receives
// flushes; each level i>0 holds one non-overlapping run with a target
// size growing 10x per level. Every flush triggers compaction work
// (Section 2.2.2's "compaction is triggered each time a MEMTable flush
// occurs"), trading constant background I/O for bounded read
// amplification.
type leveledStrategy struct {
	// levelBaseBytes is the L1 target size; level i targets
	// levelBaseBytes * fanout^(i-1).
	levelBaseBytes float64
	// fanout is the per-level size multiplier (10 in Cassandra).
	fanout float64
}

var _ compactionStrategy = (*leveledStrategy)(nil)

func (s *leveledStrategy) target(level int) float64 {
	t := s.levelBaseBytes
	for i := 1; i < level; i++ {
		t *= s.fanout
	}
	return t
}

func (s *leveledStrategy) Plan(e *Engine) []*backgroundTask {
	var tasks []*backgroundTask

	// L0 -> L1: merge all idle L0 tables with the L1 run.
	var l0 []*ssTable
	for _, t := range e.tables.AtLevel(0) {
		if !t.compacting {
			l0 = append(l0, t)
		}
	}
	if len(l0) > 0 {
		inputs := l0
		if run := s.idleRun(e, 1); run != nil {
			inputs = append(inputs, run)
		}
		tasks = append(tasks, e.newCompactionTask(inputs, 1))
	}

	// Spill oversized levels downward: level i run beyond target merges
	// with level i+1's run.
	maxLevel := e.tables.MaxLevel()
	for level := 1; level <= maxLevel; level++ {
		run := s.idleRun(e, level)
		if run == nil || run.Bytes() <= s.target(level) {
			continue
		}
		inputs := []*ssTable{run}
		if next := s.idleRun(e, level+1); next != nil {
			inputs = append(inputs, next)
		}
		tasks = append(tasks, e.newCompactionTask(inputs, level+1))
	}
	return tasks
}

// idleRun returns the single non-compacting run at level, or nil. If
// several runs briefly coexist at a level (completed tasks racing), the
// largest is chosen.
func (s *leveledStrategy) idleRun(e *Engine, level int) *ssTable {
	var best *ssTable
	for _, t := range e.tables.AtLevel(level) {
		if t.compacting {
			continue
		}
		if best == nil || t.Bytes() > best.Bytes() {
			best = t
		}
	}
	return best
}

// newStrategy builds the strategy selected by the compaction_strategy
// parameter.
func newStrategy(value int, e *Engine) (compactionStrategy, error) {
	switch value {
	case 0: // CompactionSizeTiered
		return &sizeTieredStrategy{
			minThreshold: e.model.SizeTieredMinThreshold,
			maxThreshold: 32,
		}, nil
	case 1: // CompactionLeveled
		return &leveledStrategy{
			levelBaseBytes: e.model.LeveledBaseBytes,
			fanout:         10,
		}, nil
	default:
		return nil, fmt.Errorf("nosql: unknown compaction strategy %d", value)
	}
}
