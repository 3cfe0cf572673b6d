package flowlog

// Stats are the table's fleet-aggregate counters. They are plain
// integers, written and read on the table's owning goroutine alone;
// the concurrent plane sums per-shard copies field by field.
type Stats struct {
	Active       int64 // current active flows (gauge)
	Opened       int64
	Closed       int64 // all closes, any state
	Evicted      int64 // closes forced by the MaxActive bound
	IdleClosed   int64 // closes from the idle timeout
	Pkts         int64 // TCP segments recorded
	DataPkts     int64 // segments with payload
	Retrans      int64
	ZeroWin      int64
	RTTSamples   int64
	RTTSumMicros int64
}

// Stats copies the counters as they stand, aging nothing.
// Owning-goroutine only.
func (t *Table) Stats() Stats { return t.stats }
