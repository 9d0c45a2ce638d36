//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bitset popcount. The core is the positional-nibble method:
// VPSHUFB looks 32 low and 32 high nibbles up in a per-byte popcount table
// at once, VPSADBW folds the byte counts into four per-lane qword sums,
// and one VPADDQ accumulates — 4 input words per step with no data-
// dependent branches. Tails (len % 4 words) run through scalar POPCNT so
// the routine accepts any slice length.

// Per-byte popcount of the 16 nibble values, repeated across both 128-bit
// lanes (VPSHUFB indexes within each lane).
DATA popcntLUT<>+0x00(SB)/8, $0x0302020102010100
DATA popcntLUT<>+0x08(SB)/8, $0x0403030203020201
DATA popcntLUT<>+0x10(SB)/8, $0x0302020102010100
DATA popcntLUT<>+0x18(SB)/8, $0x0403030203020201
GLOBL popcntLUT<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32

// func popcountWordsAVX2(w []uint64) int
TEXT ·popcountWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	VPXOR Y7, Y7, Y7              // qword accumulators
	VPXOR Y6, Y6, Y6              // zero operand for VPSADBW
	VMOVDQU popcntLUT<>(SB), Y4
	VMOVDQU nibbleMask<>(SB), Y5
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   reduce
loop:
	VMOVDQU (SI), Y0
	ADDQ $32, SI
	VPAND   Y5, Y0, Y1            // low nibbles
	VPSRLW  $4, Y0, Y0
	VPAND   Y5, Y0, Y0            // high nibbles
	VPSHUFB Y1, Y4, Y1            // per-byte counts of the low nibbles
	VPSHUFB Y0, Y4, Y0            // per-byte counts of the high nibbles
	VPADDB  Y1, Y0, Y0            // per-byte popcounts (max 8, no overflow)
	VPSADBW Y6, Y0, Y0            // per-lane byte sums -> 4 qwords
	VPADDQ  Y0, Y7, Y7
	DECQ DX
	JNZ  loop
reduce:
	VEXTRACTI128 $1, Y7, X0
	VPADDQ  X0, X7, X7
	VPSHUFD $0x4E, X7, X0         // swap the two qwords
	VPADDQ  X0, X7, X7
	MOVQ X7, AX
	VZEROUPPER
	ANDQ $3, CX
	JZ   done
tail:
	POPCNTQ (SI), DX
	ADDQ DX, AX
	ADDQ $8, SI
	DECQ CX
	JNZ  tail
done:
	MOVQ AX, ret+24(FP)
	RET
