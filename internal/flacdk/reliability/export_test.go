package reliability

// Cap returns the largest snapshot the checkpointer can hold.
func (c *Checkpointer) Cap() uint64 { return c.dataCap }
