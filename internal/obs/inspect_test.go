package obs

import "io"

// Record appends an event, stamping its sequence number and time offset.
// Nil journals drop the event, so callers need no guard.
func (j *Journal) Record(e Event) { j.recordStamped(e) }

// WriteTrace exports the retained events alone in Chrome trace_event JSON.
func (j *Journal) WriteTrace(w io.Writer) error {
	meta, out := journalTraceEvents(j.Snapshot())
	return writeTraceDoc(w, append(meta, out...))
}

// Dropped returns how many completed spans the ring bound evicted.
func (l *SpanLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total - uint64(len(l.buf))
}
