//go:build amd64 && !purego

package cpuid

// Query executes CPUID with EAX = leaf and ECX = sub and returns the four
// result registers.
func Query(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// XCR0 executes XGETBV with ECX = 0 and returns the extended control
// register XCR0, whose bits name the register states the OS saves across
// context switches. Callers must first check CPUID.1:ECX.OSXSAVE.
func XCR0() (eax, edx uint32)

// AVX512 is the gate of every AVX-512 kernel in the module: the dense
// Bernoulli draws and bootstrap indices (internal/xrand) and the bit-matrix
// transpose (internal/graph). CPUID leaf 7 must advertise AVX-512F (the
// 512-bit forms, VPTERNLOGQ, VPROLVQ, opmasks), DQ (VPMULLQ, KMOVB) and
// BMI2 (PDEP); leaf 1 must advertise OSXSAVE; and XCR0 must show the OS
// saving the SSE, AVX, opmask and both upper-ZMM states, without which a
// kernel would fault or lose registers across a context switch. One gate
// for all of them means a host runs either every vector kernel or none.
func AVX512() bool {
	maxID, _, _, _ := Query(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := Query(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	xcr0, _ := XCR0()
	const avx512State = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0&avx512State != avx512State {
		return false
	}
	_, ebx7, _, _ := Query(7, 0)
	const bmi2AndAVX512 = 1<<8 | 1<<16 | 1<<17
	return ebx7&bmi2AndAVX512 == bmi2AndAVX512
}
