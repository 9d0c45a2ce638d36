// Package cpuid exposes the two x86 instructions the assembly kernels'
// runtime dispatch reads: CPUID, which advertises an instruction set, and
// XGETBV, which confirms the operating system saves the register state
// that set uses. The bitset popcount (internal/graph) gates AVX2 on them
// beside its kernel. The AVX-512 gate lives here, because two packages
// carry AVX-512 kernels — the dense Bernoulli draws (internal/xrand) and
// the bit-matrix transpose (internal/graph) — and both must read one gate.
//
// The functions exist on amd64 builds without the purego tag, the only
// builds that carry x86 assembly; elsewhere the package is empty.
package cpuid
