//go:build linux

package main

import (
	"os"
	"syscall"
)

// watchSpool reports submissions into dir as they happen: a rename into
// it (IN_MOVED_TO, how clients must submit) or a file written in place
// and closed (IN_CLOSE_WRITE). Events are not decoded — any read, a
// queue overflow included, is one token on the 1-buffered channel, and
// the serve loop answers a token by re-listing the directory, so a burst
// coalesces and nothing depends on which names the kernel reported. The
// returned func closes the watch and waits for the reader to exit. A
// nil channel means inotify is unavailable and the caller has only its
// poll ticker.
func watchSpool(dir string) (<-chan struct{}, func()) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, func() {}
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_MOVED_TO|syscall.IN_CLOSE_WRITE); err != nil {
		syscall.Close(fd)
		return nil, func() {}
	}
	// A non-blocking fd handed to os.NewFile is served by the runtime
	// poller: Read parks the goroutine, not a thread, and Close wakes it.
	f := os.NewFile(uintptr(fd), "inotify:"+dir)
	wake := make(chan struct{}, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		buf := make([]byte, 4096) // an event is at most 16+NAME_MAX+1 bytes
		for {
			if _, err := f.Read(buf); err != nil {
				return // closed; or broken, and the poll ticker carries on
			}
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}()
	return wake, func() {
		f.Close() // its error says only that the reader is already gone
		<-exited
	}
}
