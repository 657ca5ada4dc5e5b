//go:build amd64 && !purego

#include "textflag.h"

// func integralRow(p *byte, prevIn, curIn, prevSq, curSq *uint32, n int) (s, q uint32)
//
// One row of both summed-area tables, n pixels (a multiple of
// integralStep). SSE2 only (the amd64 baseline). Per 4 pixels: the
// bytes widen to 32-bit lanes (PUNPCKLBW, PUNPCKLWL against zero) and
// PMADDWL of those lanes with themselves forms p² (the high halves are
// zero); two PSLLO+PADDL steps turn each vector into its inclusive
// prefix sums; the carried row sums, broadcast in every lane, are added
// and rebroadcast from lane 3 with PSHUFD $0xFF; then the previous
// row's entries are added and the four results stored. All lanes wrap
// modulo 2³², exactly as the tables are defined.
TEXT ·integralRow(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ prevIn+8(FP), R8
	MOVQ curIn+16(FP), R9
	MOVQ prevSq+24(FP), R10
	MOVQ curSq+32(FP), R11
	MOVQ n+40(FP), CX
	PXOR X7, X7 // zero lanes for widening
	PXOR X4, X4 // carried row sum, in every lane
	PXOR X5, X5 // carried row sum of squares, in every lane
	XORQ DX, DX // pixel index
	TESTQ CX, CX
	JEQ   done

loop:
	MOVL (SI)(DX*1), X0
	PUNPCKLBW X7, X0
	PUNPCKLWL X7, X0 // p0..p3
	MOVOA X0, X1
	PMADDWL X1, X1   // p0²..p3²
	MOVOA X0, X2
	MOVOA X1, X3
	PSLLO $4, X2
	PSLLO $4, X3
	PADDL X2, X0
	PADDL X3, X1
	MOVOA X0, X2
	MOVOA X1, X3
	PSLLO $8, X2
	PSLLO $8, X3
	PADDL X2, X0
	PADDL X3, X1
	PADDL X4, X0
	PADDL X5, X1
	PSHUFD $0xFF, X0, X4
	PSHUFD $0xFF, X1, X5
	MOVOU (R8)(DX*4), X2
	MOVOU (R10)(DX*4), X3
	PADDL X2, X0
	PADDL X3, X1
	MOVOU X0, (R9)(DX*4)
	MOVOU X1, (R11)(DX*4)
	ADDQ $4, DX
	CMPQ DX, CX
	JLT  loop

done:
	MOVL X4, AX
	MOVL AX, s+48(FP)
	MOVL X5, AX
	MOVL AX, q+52(FP)
	RET
