//go:build race

package main

// The race detector's runtime frames belong to no layer, so a race
// build cannot meet the profile-coverage check.
func init() { raceEnabled = true }
