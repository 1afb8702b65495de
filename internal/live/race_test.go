//go:build race

package live

// raceEnabled reports a -race build. Its sync.Pool drops a share of what it
// is handed, so allocation counts there are not the program's.
const raceEnabled = true
