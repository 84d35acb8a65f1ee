package tiering

// Heat exposes the daemon's tracker (tests, diagnostics).
func (d *Daemon) Heat() *HeatMap { return d.heat }
