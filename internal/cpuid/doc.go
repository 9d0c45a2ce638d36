// Package cpuid exposes the two x86 instructions the assembly kernels'
// runtime dispatch reads: CPUID, which advertises an instruction set, and
// XGETBV, which confirms the operating system saves the register state
// that set uses. The bitset kernels (internal/graph) gate AVX2 on them and
// the dense Bernoulli kernel (internal/xrand) gates AVX-512 on them; each
// gate stays beside its kernel, and this package holds only the two
// instructions, so their assembly exists once.
//
// The functions exist on amd64 builds without the purego tag, the only
// builds that carry x86 assembly; elsewhere the package is empty.
package cpuid
