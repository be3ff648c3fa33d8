//go:build race

package rpi

// The race detector makes sync.Pool drop a random share of Puts, so a
// recycled body may legitimately never come back out of wire.GetBuf.
func init() { poolDropsPuts = true }
