//go:build !race

package sim

import "iter"

// pull starts a kernel as a coroutine; see pull_race.go for race
// builds.
func pull(seq iter.Seq[struct{}]) func() (struct{}, bool) {
	next, _ := iter.Pull(seq)
	return next
}
