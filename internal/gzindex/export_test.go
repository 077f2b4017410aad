package gzindex

// Stored returns the flate bytes of an imported window and the length
// it declares.
func (w *Window) Stored() ([]byte, int) {
	comp, _ := w.flate()
	return comp, w.rawLen
}
