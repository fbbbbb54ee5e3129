//go:build !race

package wsncrypto

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
