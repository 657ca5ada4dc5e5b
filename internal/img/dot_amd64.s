//go:build amd64 && !purego

#include "textflag.h"

// func dotWindow(t, f *byte, w, h, stride int) int64
//
// Σ t·f over a w×h window, exact integer. SSE2 only (the amd64
// baseline): 16 bytes per iteration are widened to 16-bit lanes with
// PUNPCK{L,H}BW against zero and multiplied pairwise into 32-bit lanes
// with PMADDWL; the ≤3-byte row tails go through a scalar 64-bit sum.
// The template rows are contiguous, the frame rows stride bytes apart.
// Products are ≤ 255², and the caller bounds w·h so that the whole
// window's sum stays below 2³²: the lanes and their fold wrap modulo
// 2³², and the zero-extending MOVL of the fold is then exact.
TEXT ·dotWindow(SB), NOSPLIT, $0-48
	MOVQ t+0(FP), SI
	MOVQ f+8(FP), DI
	MOVQ w+16(FP), BX
	MOVQ h+24(FP), R9
	MOVQ stride+32(FP), R10
	SUBQ BX, R10 // frame step from one row's end to the next row
	PXOR X7, X7  // zero lanes for byte→word widening
	PXOR X6, X6  // packed 32-bit accumulator
	XORQ R8, R8  // scalar tail accumulator
	TESTQ R9, R9
	JEQ   fold

row:
	MOVQ BX, CX

loop16:
	CMPQ CX, $16
	JLT  tail8
	MOVOU (SI), X0
	MOVOU (DI), X2
	MOVOA X0, X1
	MOVOA X2, X3
	PUNPCKLBW X7, X0
	PUNPCKHBW X7, X1
	PUNPCKLBW X7, X2
	PUNPCKHBW X7, X3
	PMADDWL X2, X0
	PMADDWL X3, X1
	PADDD X0, X6
	PADDD X1, X6
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX
	JMP  loop16

tail8:
	CMPQ CX, $8
	JLT  tail4
	MOVQ (SI), X0
	MOVQ (DI), X2
	PUNPCKLBW X7, X0
	PUNPCKLBW X7, X2
	PMADDWL X2, X0
	PADDD X0, X6
	ADDQ $8, SI
	ADDQ $8, DI
	SUBQ $8, CX

tail4:
	CMPQ CX, $4
	JLT  tail1
	MOVL (SI), AX
	MOVL AX, X0
	MOVL (DI), DX
	MOVL DX, X2
	PUNPCKLBW X7, X0
	PUNPCKLBW X7, X2
	PMADDWL X2, X0
	PADDD X0, X6
	ADDQ $4, SI
	ADDQ $4, DI
	SUBQ $4, CX

tail1:
	TESTQ CX, CX
	JEQ   nextrow

scalar:
	MOVBLZX (SI), AX
	MOVBLZX (DI), DX
	IMULL   DX, AX
	ADDQ    AX, R8
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNE     scalar

nextrow:
	ADDQ R10, DI
	DECQ R9
	JNE  row

fold:
	// Horizontal sum of the four 32-bit lanes, modulo 2³², then
	// zero-extended: exact because the window sum is below 2³².
	PSHUFD $0xEE, X6, X0
	PADDD  X0, X6
	PSHUFD $0x55, X6, X0
	PADDD  X0, X6
	MOVL   X6, AX
	ADDQ   R8, AX
	MOVQ   AX, ret+40(FP)
	RET
