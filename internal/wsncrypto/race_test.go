//go:build race

package wsncrypto

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random and crypto/sha256's AppendBinary allocates its zero padding.
const raceEnabled = true
