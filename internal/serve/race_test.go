//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back: allocation counts over pooled buffers do not hold.
const raceEnabled = true
