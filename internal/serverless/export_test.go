package serverless

// LayerBatches returns how many PullLayers batches the registry has served.
func (r *Registry) LayerBatches() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.layerBatches
}
