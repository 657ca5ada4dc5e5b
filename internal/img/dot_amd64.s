//go:build amd64 && !purego

#include "textflag.h"

// func dotRow(t, f *byte, n int) int64
//
// Σ t[i]·f[i] over two byte rows, exact integer. SSE2 only (the amd64
// baseline): 16 bytes per iteration are widened to 16-bit lanes with
// PUNPCK{L,H}BW against zero and multiplied pairwise into 32-bit lanes
// with PMADDWL. Products are ≤ 255² and each PMADDWD lane holds the
// sum of two of them, so a 32-bit lane accumulates without overflow
// for any n below ~16k — far above the widest template row. The
// horizontal fold and the ≤3-byte scalar tail keep the result
// bit-identical to dotRowGeneric.
TEXT ·dotRow(SB), NOSPLIT, $0-32
	MOVQ t+0(FP), SI
	MOVQ f+8(FP), DI
	MOVQ n+16(FP), CX
	PXOR X7, X7 // zero lanes for byte→word widening
	PXOR X6, X6 // packed int32 accumulator
	XORQ R8, R8 // scalar tail accumulator

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
	JEQ   fold

scalar:
	MOVBLZX (SI), AX
	MOVBLZX (DI), DX
	IMULL   DX, AX
	ADDQ    AX, R8
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNE     scalar

fold:
	// Horizontal sum of the four int32 lanes (all non-negative and
	// well under 2³¹, so 32-bit adds are exact).
	PSHUFD $0xEE, X6, X0
	PADDD  X0, X6
	PSHUFD $0x55, X6, X0
	PADDD  X0, X6
	MOVL   X6, AX
	ADDQ   R8, AX
	MOVQ   AX, ret+24(FP)
	RET
