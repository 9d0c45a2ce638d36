//go:build arm64 && !purego

#include "textflag.h"

// NEON bitset popcount. VCNT counts set bits per byte across a 128-bit
// vector and VUADDLV folds the sixteen byte counts into one scalar — the
// same core used by the runtime's internal/bytealg byte counter. Each
// vector step consumes 2 words; an odd trailing word goes through the
// 64-bit half of the vector unit.

// func popcountWordsNEON(w []uint64) int
TEXT ·popcountWordsNEON(SB), NOSPLIT, $0-32
	MOVD w_base+0(FP), R0
	MOVD w_len+8(FP), R1
	MOVD ZR, R2                   // accumulator
	LSR  $1, R1, R3               // 2-word steps
	CBZ  R3, tail
loop:
	VLD1.P  16(R0), [V0.B16]
	VCNT    V0.B16, V0.B16
	VUADDLV V0.B16, V1
	VMOV    V1.D[0], R4
	ADD     R4, R2
	SUB     $1, R3
	CBNZ    R3, loop
tail:
	TBZ  $0, R1, done
	MOVD (R0), R4
	VMOV R4, V0.D[0]
	VCNT    V0.B8, V0.B8
	VUADDLV V0.B8, V1
	VMOV    V1.D[0], R4
	ADD     R4, R2
done:
	MOVD R2, ret+24(FP)
	RET
