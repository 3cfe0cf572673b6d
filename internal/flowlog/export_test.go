package flowlog

// ActiveFlows returns the current active-flow count, aging nothing.
func (t *Table) ActiveFlows() int64 { return t.stats.Active }
