package gzindex

// Stored returns the flate bytes an imported window holds and the length
// it declares.
func (w *Window) Stored() ([]byte, int) { return w.comp, w.rawLen }
