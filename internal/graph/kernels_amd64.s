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

// AVX-512 64×64 bit-matrix transpose: Transpose64's butterfly with the 64
// rows held in eight ZMM registers, Z0–Z7, row 8r+l in lane l of Zr.
//
// Pass j exchanges the high j bits of each 2j-bit group of row k with the
// low j bits of row k+j. Written as selects, with m the low-j-bits mask:
//
//	row k   ← m ? row k : row k+j << j
//	row k+j ← m ? row k >> j : row k+j
//
// Passes 32, 16 and 8 pair rows 4, 2 and 1 registers apart, lane for
// lane: two shifts and two VPTERNLOGQ selects per register pair
// (CROSS). Passes 4, 2 and 1 pair lanes of one register: VSHUFI64X2 or
// VPSHUFD brings each lane its partner, one VPROLVQ rotates the partner
// left by j in the lower lanes and right by j in the upper ones (the
// rotations agree with the shifts on the bits the select keeps), and one
// VPTERNLOGQ selects under a per-lane mask that is ^m in the lower lanes
// and m in the upper ones (WITHIN). No step depends on the data.
//
// Registers: DI a; Z16–Z18 the cross-register masks m32, m16, m8;
// Z19–Z24 the in-register select masks and rotate counts of passes 4, 2
// and 1; Z8–Z15 scratch.

DATA tposeMasks<>+0x00(SB)/8, $0x00000000ffffffff
DATA tposeMasks<>+0x08(SB)/8, $0x0000ffff0000ffff
DATA tposeMasks<>+0x10(SB)/8, $0x00ff00ff00ff00ff
GLOBL tposeMasks<>(SB), RODATA|NOPTR, $24

// Pass 4: lanes 0–3 lower, 4–7 upper.
DATA tposeSel4<>+0x00(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tposeSel4<>+0x08(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tposeSel4<>+0x10(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tposeSel4<>+0x18(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tposeSel4<>+0x20(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA tposeSel4<>+0x28(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA tposeSel4<>+0x30(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA tposeSel4<>+0x38(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL tposeSel4<>(SB), RODATA|NOPTR, $64

DATA tposeRot4<>+0x00(SB)/8, $4
DATA tposeRot4<>+0x08(SB)/8, $4
DATA tposeRot4<>+0x10(SB)/8, $4
DATA tposeRot4<>+0x18(SB)/8, $4
DATA tposeRot4<>+0x20(SB)/8, $60
DATA tposeRot4<>+0x28(SB)/8, $60
DATA tposeRot4<>+0x30(SB)/8, $60
DATA tposeRot4<>+0x38(SB)/8, $60
GLOBL tposeRot4<>(SB), RODATA|NOPTR, $64

// Pass 2: lanes 0, 1, 4, 5 lower; 2, 3, 6, 7 upper.
DATA tposeSel2<>+0x00(SB)/8, $0xcccccccccccccccc
DATA tposeSel2<>+0x08(SB)/8, $0xcccccccccccccccc
DATA tposeSel2<>+0x10(SB)/8, $0x3333333333333333
DATA tposeSel2<>+0x18(SB)/8, $0x3333333333333333
DATA tposeSel2<>+0x20(SB)/8, $0xcccccccccccccccc
DATA tposeSel2<>+0x28(SB)/8, $0xcccccccccccccccc
DATA tposeSel2<>+0x30(SB)/8, $0x3333333333333333
DATA tposeSel2<>+0x38(SB)/8, $0x3333333333333333
GLOBL tposeSel2<>(SB), RODATA|NOPTR, $64

DATA tposeRot2<>+0x00(SB)/8, $2
DATA tposeRot2<>+0x08(SB)/8, $2
DATA tposeRot2<>+0x10(SB)/8, $62
DATA tposeRot2<>+0x18(SB)/8, $62
DATA tposeRot2<>+0x20(SB)/8, $2
DATA tposeRot2<>+0x28(SB)/8, $2
DATA tposeRot2<>+0x30(SB)/8, $62
DATA tposeRot2<>+0x38(SB)/8, $62
GLOBL tposeRot2<>(SB), RODATA|NOPTR, $64

// Pass 1: even lanes lower, odd lanes upper.
DATA tposeSel1<>+0x00(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tposeSel1<>+0x08(SB)/8, $0x5555555555555555
DATA tposeSel1<>+0x10(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tposeSel1<>+0x18(SB)/8, $0x5555555555555555
DATA tposeSel1<>+0x20(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tposeSel1<>+0x28(SB)/8, $0x5555555555555555
DATA tposeSel1<>+0x30(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tposeSel1<>+0x38(SB)/8, $0x5555555555555555
GLOBL tposeSel1<>(SB), RODATA|NOPTR, $64

DATA tposeRot1<>+0x00(SB)/8, $1
DATA tposeRot1<>+0x08(SB)/8, $63
DATA tposeRot1<>+0x10(SB)/8, $1
DATA tposeRot1<>+0x18(SB)/8, $63
DATA tposeRot1<>+0x20(SB)/8, $1
DATA tposeRot1<>+0x28(SB)/8, $63
DATA tposeRot1<>+0x30(SB)/8, $1
DATA tposeRot1<>+0x38(SB)/8, $63
GLOBL tposeRot1<>(SB), RODATA|NOPTR, $64

// CROSS runs pass j on the register pair x (rows k) and y (rows k+j):
// 0xD8 is C ? B : A and 0xE4 is C ? A : B, A being the destination.
#define CROSS(j, m, x, y, t1, t2) \
	VPSRLQ     $j, x, t1;         \
	VPSLLQ     $j, y, t2;         \
	VPTERNLOGQ $0xD8, m, t1, y;   \
	VPTERNLOGQ $0xE4, m, t2, x

// WITHIN runs an in-register pass on x, whose partner lanes t holds.
#define WITHIN(rot, sel, x, t) \
	VPROLVQ    rot, t, t;      \
	VPTERNLOGQ $0xD8, sel, t, x

// func transpose64AVX512(a *[64]uint64)
TEXT ·transpose64AVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	VMOVDQU64 0(DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	VMOVDQU64 256(DI), Z4
	VMOVDQU64 320(DI), Z5
	VMOVDQU64 384(DI), Z6
	VMOVDQU64 448(DI), Z7
	VPBROADCASTQ tposeMasks<>+0x00(SB), Z16
	VPBROADCASTQ tposeMasks<>+0x08(SB), Z17
	VPBROADCASTQ tposeMasks<>+0x10(SB), Z18
	VMOVDQU64 tposeSel4<>(SB), Z19
	VMOVDQU64 tposeRot4<>(SB), Z20
	VMOVDQU64 tposeSel2<>(SB), Z21
	VMOVDQU64 tposeRot2<>(SB), Z22
	VMOVDQU64 tposeSel1<>(SB), Z23
	VMOVDQU64 tposeRot1<>(SB), Z24

	CROSS(32, Z16, Z0, Z4, Z8, Z9)
	CROSS(32, Z16, Z1, Z5, Z10, Z11)
	CROSS(32, Z16, Z2, Z6, Z12, Z13)
	CROSS(32, Z16, Z3, Z7, Z14, Z15)

	CROSS(16, Z17, Z0, Z2, Z8, Z9)
	CROSS(16, Z17, Z1, Z3, Z10, Z11)
	CROSS(16, Z17, Z4, Z6, Z12, Z13)
	CROSS(16, Z17, Z5, Z7, Z14, Z15)

	CROSS(8, Z18, Z0, Z1, Z8, Z9)
	CROSS(8, Z18, Z2, Z3, Z10, Z11)
	CROSS(8, Z18, Z4, Z5, Z12, Z13)
	CROSS(8, Z18, Z6, Z7, Z14, Z15)

	VSHUFI64X2 $0x4e, Z0, Z0, Z8  // lane l ← lane l^4
	VSHUFI64X2 $0x4e, Z1, Z1, Z9
	VSHUFI64X2 $0x4e, Z2, Z2, Z10
	VSHUFI64X2 $0x4e, Z3, Z3, Z11
	VSHUFI64X2 $0x4e, Z4, Z4, Z12
	VSHUFI64X2 $0x4e, Z5, Z5, Z13
	VSHUFI64X2 $0x4e, Z6, Z6, Z14
	VSHUFI64X2 $0x4e, Z7, Z7, Z15
	WITHIN(Z20, Z19, Z0, Z8)
	WITHIN(Z20, Z19, Z1, Z9)
	WITHIN(Z20, Z19, Z2, Z10)
	WITHIN(Z20, Z19, Z3, Z11)
	WITHIN(Z20, Z19, Z4, Z12)
	WITHIN(Z20, Z19, Z5, Z13)
	WITHIN(Z20, Z19, Z6, Z14)
	WITHIN(Z20, Z19, Z7, Z15)

	VSHUFI64X2 $0xb1, Z0, Z0, Z8  // lane l ← lane l^2
	VSHUFI64X2 $0xb1, Z1, Z1, Z9
	VSHUFI64X2 $0xb1, Z2, Z2, Z10
	VSHUFI64X2 $0xb1, Z3, Z3, Z11
	VSHUFI64X2 $0xb1, Z4, Z4, Z12
	VSHUFI64X2 $0xb1, Z5, Z5, Z13
	VSHUFI64X2 $0xb1, Z6, Z6, Z14
	VSHUFI64X2 $0xb1, Z7, Z7, Z15
	WITHIN(Z22, Z21, Z0, Z8)
	WITHIN(Z22, Z21, Z1, Z9)
	WITHIN(Z22, Z21, Z2, Z10)
	WITHIN(Z22, Z21, Z3, Z11)
	WITHIN(Z22, Z21, Z4, Z12)
	WITHIN(Z22, Z21, Z5, Z13)
	WITHIN(Z22, Z21, Z6, Z14)
	WITHIN(Z22, Z21, Z7, Z15)

	VPSHUFD $0x4e, Z0, Z8         // lane l ← lane l^1
	VPSHUFD $0x4e, Z1, Z9
	VPSHUFD $0x4e, Z2, Z10
	VPSHUFD $0x4e, Z3, Z11
	VPSHUFD $0x4e, Z4, Z12
	VPSHUFD $0x4e, Z5, Z13
	VPSHUFD $0x4e, Z6, Z14
	VPSHUFD $0x4e, Z7, Z15
	WITHIN(Z24, Z23, Z0, Z8)
	WITHIN(Z24, Z23, Z1, Z9)
	WITHIN(Z24, Z23, Z2, Z10)
	WITHIN(Z24, Z23, Z3, Z11)
	WITHIN(Z24, Z23, Z4, Z12)
	WITHIN(Z24, Z23, Z5, Z13)
	WITHIN(Z24, Z23, Z6, Z14)
	WITHIN(Z24, Z23, Z7, Z15)

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	VZEROUPPER
	RET
