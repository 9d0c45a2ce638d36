//go:build amd64 && !purego

#include "textflag.h"
#include "funcdata.h"

// The two SplitMix64 vector kernels: dense Bernoulli draws (BelowInto)
// and bootstrap indices (IntnInto, at the end of the file).
//
// Dense Bernoulli draws, eight per step in ZMM registers, in two passes
// over chunks of up to 64 layout words (at most 4096 draws).
//
// Draw pass: the chunk's draws are one run of counters, base + 1..8
// increments per step, so one loop with a fixed trip count runs
// SplitMix64's mix on eight counters at once (two VPMULLQ), compares the
// eight draws unsigned against their thresholds into K1 (VPCMPUQ) and
// stores the eight decision bits as one byte of a stack buffer (KMOVB).
// Lanes past the chunk read the next chunk's thresholds or the layout's
// zero padding; their bits are never deposited.
//
// Deposit pass: for each word, two loads and a double shift (SHRQ with
// three operands, SHRD) bring the word's decisions to bit 0, PDEP
// scatters them onto the word's mask — it reads only as many bits as the
// mask has set — and one OR stores them.
//
// The stream state is read, never written: the Go caller advances it by
// the layout's n draws. PCALIGN pins the loops' alignment, so their speed
// does not depend on where the linker places the function. 512-bit steps were chosen over 256-bit ones by
// measurement (DESIGN.md, "Performance: dense draws in vector registers").
//
// Registers: DI dst, SI the next layout word, BX the layout's end, R8 thr,
// DX the state, R13 n, R9 the chunk's end; Z11 the lane offsets, Z12 and
// Z13 the mix multipliers, Z14 one step of eight increments, Z0 the
// step's counters. The decision buffer is the frame, 512 bytes plus the
// 16 the deposit pass's loads may reach past its last byte.

// SplitMix64's increment and its two mix multipliers.
DATA splitmix<>+0x00(SB)/8, $0x9e3779b97f4a7c15
DATA splitmix<>+0x08(SB)/8, $0xbf58476d1ce4e5b9
DATA splitmix<>+0x10(SB)/8, $0x94d049bb133111eb
GLOBL splitmix<>(SB), RODATA|NOPTR, $24

// Lane j of a step holds the step's draw j, j+1 increments past the base.
DATA laneSteps<>+0x00(SB)/8, $0x9e3779b97f4a7c15
DATA laneSteps<>+0x08(SB)/8, $0x3c6ef372fe94f82a
DATA laneSteps<>+0x10(SB)/8, $0xdaa66d2c7ddf743f
DATA laneSteps<>+0x18(SB)/8, $0x78dde6e5fd29f054
DATA laneSteps<>+0x20(SB)/8, $0x1715609f7c746c69
DATA laneSteps<>+0x28(SB)/8, $0xb54cda58fbbee87e
DATA laneSteps<>+0x30(SB)/8, $0x538454127b096493
DATA laneSteps<>+0x38(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL laneSteps<>(SB), RODATA|NOPTR, $64

// func belowIntoAVX512(dst []uint64, words []BelowWord, thr []uint64, state, n uint64)
TEXT ·belowIntoAVX512(SB), 0, $528-88
	NO_LOCAL_POINTERS
	MOVQ dst_base+0(FP), DI
	MOVQ words_base+24(FP), SI
	MOVQ words_len+32(FP), BX
	MOVQ thr_base+48(FP), R8
	MOVQ state+72(FP), DX
	MOVQ n+80(FP), R13
	SHLQ $4, BX                   // 16 bytes per BelowWord
	ADDQ SI, BX
	CMPQ SI, BX
	JAE  done
	VMOVDQU64    laneSteps<>(SB), Z11
	VPBROADCASTQ splitmix<>+0x08(SB), Z12
	VPBROADCASTQ splitmix<>+0x10(SB), Z13
	VPBROADCASTQ laneSteps<>+0x38(SB), Z14

chunk:
	LEAQ    1024(SI), R9          // 64 words on
	CMPQ    R9, BX
	CMOVQHI BX, R9
	MOVQ    R13, R10              // the chunk's draws end at n,
	CMPQ    R9, BX
	JAE     lanes
	MOVL    12(R9), R10           // or where the next chunk's begin
lanes:
	MOVL  12(SI), AX              // the chunk's first draw
	SUBQ  AX, R10
	LEAQ  (R8)(AX*8), R12
	IMULQ splitmix<>+0x00(SB), AX
	ADDQ  DX, AX                  // the state before it
	VPBROADCASTQ AX, Z0
	VPADDQ Z11, Z0, Z0
	ADDQ  $7, R10
	SHRQ  $3, R10                 // decision bytes
	XORL  R11, R11
	TESTQ R10, R10
	JZ    deposit
	PCALIGN $64

draw:
	VPSRLQ  $30, Z0, Z1
	VPXORQ  Z0, Z1, Z1
	VPMULLQ Z12, Z1, Z1
	VPSRLQ  $27, Z1, Z2
	VPXORQ  Z1, Z2, Z2
	VPMULLQ Z13, Z2, Z2
	VPSRLQ  $31, Z2, Z3
	VPXORQ  Z2, Z3, Z3            // eight draws
	VPCMPUQ $1, (R12), Z3, K1     // draw < threshold, unsigned
	KMOVB   K1, (SP)(R11*1)
	VPADDQ  Z14, Z0, Z0
	ADDQ    $64, R12
	INCQ    R11
	CMPQ    R11, R10
	JB      draw

deposit:
	MOVL 12(SI), R12              // the chunk's first draw
	PCALIGN $32

dword:
	MOVL  12(SI), CX
	SUBL  R12, CX                 // the word's first decision bit
	MOVL  CX, R10
	SHRL  $3, R10
	ANDL  $7, CX
	MOVQ  (SP)(R10*1), AX
	MOVQ  8(SP)(R10*1), R11
	SHRQ  CX, R11, AX             // decisions from bit 0
	PDEPQ 0(SI), AX, AX           // onto the mask
	MOVL  8(SI), R10
	ORQ   AX, (DI)(R10*8)
	ADDQ  $16, SI
	CMPQ  SI, R9
	JB    dword
	CMPQ  SI, BX
	JB    chunk
	VZEROUPPER

done:
	RET

// Bootstrap indices, eight per step: IntnInto's draws for a power-of-two
// bound, which never reject, are the top bits of consecutive draws. The
// step's counters run SplitMix64's mix as the draw pass above does, one
// variable right shift keeps each draw's top bits, and one store writes
// the eight indices. The state is read, never written.
//
// Registers: DI dst, CX the steps left, X15 the shift, Z0 the step's
// counters, Z12 and Z13 the mix multipliers, Z14 one step of increments.

// func intnIntoAVX512(dst []int, state, shift uint64)
TEXT ·intnIntoAVX512(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ state+24(FP), AX
	MOVQ shift+32(FP), BX
	SHRQ $3, CX                   // steps of eight
	JZ   intnDone
	VMOVQ        BX, X15
	VPBROADCASTQ AX, Z0
	VPADDQ       laneSteps<>(SB), Z0, Z0
	VPBROADCASTQ splitmix<>+0x08(SB), Z12
	VPBROADCASTQ splitmix<>+0x10(SB), Z13
	VPBROADCASTQ laneSteps<>+0x38(SB), Z14
	PCALIGN $64

intnStep:
	VPSRLQ    $30, Z0, Z1
	VPXORQ    Z0, Z1, Z1
	VPMULLQ   Z12, Z1, Z1
	VPSRLQ    $27, Z1, Z2
	VPXORQ    Z1, Z2, Z2
	VPMULLQ   Z13, Z2, Z2
	VPSRLQ    $31, Z2, Z3
	VPXORQ    Z2, Z3, Z3          // eight draws
	VPSRLQ    X15, Z3, Z3         // their top bits
	VMOVDQU64 Z3, (DI)
	VPADDQ    Z14, Z0, Z0
	ADDQ      $64, DI
	DECQ      CX
	JNZ       intnStep
	VZEROUPPER

intnDone:
	RET
