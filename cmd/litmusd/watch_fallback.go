//go:build !linux

package main

// watchSpool without inotify has no submit event to offer: the nil
// channel leaves the serve loop on its poll ticker alone.
func watchSpool(dir string) (<-chan struct{}, func()) {
	return nil, func() {}
}
