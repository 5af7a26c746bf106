package nosql

// epochSeries is the engine's append-only record of per-epoch rates. At
// EpochOps 1 it takes an entry per operation, so it is a list of
// fixed-capacity chunks rather than one slice: growing allocates the
// next chunk and never copies the earlier ones, and a long series
// carries no doubling slack.
type epochSeries struct {
	full [][]float64 // filled chunks, oldest first
	tail []float64   // the chunk being filled
}

// Chunk capacities double from the first to the cap, then repeat.
const (
	seriesFirstChunk = 128
	seriesMaxChunk   = 8192
)

// add appends one epoch's rate.
//
//rafiki:hot
func (s *epochSeries) add(rate float64) {
	if len(s.tail) == cap(s.tail) {
		s.grow() //lint:allow hotalloc one chunk per 128 to 8192 epochs
	}
	s.tail = append(s.tail, rate)
}

// grow retires the full tail chunk and starts the next one.
func (s *epochSeries) grow() {
	size := seriesFirstChunk
	if c := cap(s.tail); c > 0 {
		s.full = append(s.full, s.tail)
		size = min(2*c, seriesMaxChunk)
	}
	s.tail = make([]float64, 0, size)
}

// len returns the number of recorded epochs.
func (s *epochSeries) len() int {
	n := len(s.tail)
	for _, c := range s.full {
		n += len(c)
	}
	return n
}

// appendTo appends the whole series, oldest epoch first, to dst.
func (s *epochSeries) appendTo(dst []float64) []float64 {
	for _, c := range s.full {
		dst = append(dst, c...)
	}
	return append(dst, s.tail...)
}
