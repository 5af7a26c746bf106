package nosql

// commitLog models Cassandra's segmented commit log as a real record
// store: every write appends a record, segments roll as they fill, and
// the records accumulated since the last memtable flush are exactly
// what crash recovery must replay (Section 2.2.1's "disk-based file
// where uncommitted queries are saved for recovery/replay").
type commitLog struct {
	segmentBytes float64
	rowBytes     float64

	// pending holds the records written since the last flush mark — the
	// replay set after a crash.
	pending []logRecord
	bytes   float64
	// segmentsRolled counts segment rollovers (each costs a seek).
	segmentsRolled uint64
}

// logRecord is one durable mutation: a write or a delete, 16 bytes.
// TTL'd writes carry their absolute virtual expiry time so crash
// recovery replays them with the same lifetime. Every write's expiry is
// >= 0 (0 = none), so a delete is a record with a negative expiry.
type logRecord struct {
	key    uint64
	expiry float64
}

func (r logRecord) tombstone() bool { return r.expiry < 0 }

func newCommitLog(segmentBytes, rowBytes float64) *commitLog {
	if segmentBytes <= 0 {
		segmentBytes = 1
	}
	return &commitLog{segmentBytes: segmentBytes, rowBytes: rowBytes}
}

// Append records one write or delete occupying size bytes of log
// space (size <= 0 falls back to the row size; tombstones are small).
//
//rafiki:hot
func (l *commitLog) Append(key uint64, tombstone bool, expiry, size float64) {
	if tombstone {
		expiry = -1
	}
	l.pending = append(l.pending, logRecord{key: key, expiry: expiry})
	before := l.bytes
	if size <= 0 {
		size = l.rowBytes
		if tombstone {
			size /= 8
		}
	}
	l.bytes += size
	if int(before/l.segmentBytes) != int(l.bytes/l.segmentBytes) {
		l.segmentsRolled++
	}
}

// Bytes returns the unflushed commit-log size.
func (l *commitLog) Bytes() float64 { return l.bytes }

// MarkFlushed discards replay state covered by a completed memtable
// flush (segment recycling).
func (l *commitLog) MarkFlushed() {
	l.pending = l.pending[:0]
	l.bytes = 0
}

// PendingRecords returns how many unflushed records the log holds.
func (l *commitLog) PendingRecords() int { return len(l.pending) }

// DropTail discards the newest n pending records — a torn or corrupted
// segment tail that recovery cannot replay — and returns how many were
// actually dropped. The byte accounting keeps the on-disk size: a torn
// tail still occupies its segment space until recycled.
func (l *commitLog) DropTail(n int) int {
	if n <= 0 {
		return 0
	}
	if n > len(l.pending) {
		n = len(l.pending)
	}
	l.pending = l.pending[:len(l.pending)-n]
	return n
}

// Replay returns the records that must be re-applied after a crash, in
// append order.
func (l *commitLog) Replay() []logRecord {
	out := make([]logRecord, len(l.pending))
	copy(out, l.pending)
	return out
}

// Resize updates the segment size on reconfiguration.
func (l *commitLog) Resize(segmentBytes float64) {
	if segmentBytes > 0 {
		l.segmentBytes = segmentBytes
	}
}
