//go:build amd64 && !purego

package cpuid

// Query executes CPUID with EAX = leaf and ECX = sub and returns the four
// result registers.
func Query(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// XCR0 executes XGETBV with ECX = 0 and returns the extended control
// register XCR0, whose bits name the register states the OS saves across
// context switches. Callers must first check CPUID.1:ECX.OSXSAVE.
func XCR0() (eax, edx uint32)
