package wsncrypto

// hasAESNI reports whether the CPU has the AES-NI instructions (CPUID leaf
// 1, ECX bit 25). Every amd64 CPU has the SSE2 the routines also use.
var hasAESNI = cpuidAESNI()

func cpuidAESNI() bool

// expandKeyAsm is expandKeyGeneric on AES-NI.
//
//go:noescape
func expandKeyAsm(key *[KeySize]byte, s *schedule)

// encryptBlockAsm is encryptBlockGeneric on AES-NI.
//
//go:noescape
func encryptBlockAsm(s *schedule, dst, src *[blockSize]byte)
