package fabric

// resident returns the number of lines currently cached.
func (c *cache) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size()
}

// maintLockCount returns how many times a maintenance path has acquired
// the cache lock: the observable of the one-lock-per-call contract of the
// ranged operations.
func (c *cache) maintLockCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maintLocks
}

// Reserved returns how many bytes of global memory Reserve has handed out.
func (f *Fabric) Reserved() uint64 {
	f.reserveMu.Lock()
	defer f.reserveMu.Unlock()
	return f.reserveOff
}
