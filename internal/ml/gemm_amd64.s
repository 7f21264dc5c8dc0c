#include "textflag.h"

// func gemmNN2x8(k, n8 int, a0, a1, b, c0, c1 *float32, ldb int)
//
// For each column block j = 0, 8, …, n8−8, and each p in 0..k−1 in order:
//   c0[j:j+8] += a0[p]·b[p·ldb+j : p·ldb+j+8]
//   c1[j:j+8] += a1[p]·b[p·ldb+j : p·ldb+j+8]
// one MULPS and one ADDPS per lane and step, so every lane runs the chain
// gemmNNBlock runs for that element.
TEXT ·gemmNN2x8(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ n8+8(FP), DX
	MOVQ a0+16(FP), SI
	MOVQ a1+24(FP), DI
	MOVQ b+32(FP), R8
	MOVQ c0+40(FP), R9
	MOVQ c1+48(FP), R10
	MOVQ ldb+56(FP), R11
	SHLQ $2, R11 // B row stride in bytes
	SHLQ $2, DX  // column bound in bytes
	XORQ R12, R12 // byte offset of column j

cols:
	CMPQ R12, DX
	JGE  done
	MOVUPS (R9)(R12*1), X0
	MOVUPS 16(R9)(R12*1), X1
	MOVUPS (R10)(R12*1), X2
	MOVUPS 16(R10)(R12*1), X3
	LEAQ (R8)(R12*1), R13 // &b[p·ldb+j]
	XORQ R14, R14         // p

taps:
	CMPQ R14, CX
	JGE  store
	MOVSS  (SI)(R14*4), X4
	SHUFPS $0x00, X4, X4 // a0[p] in every lane
	MOVSS  (DI)(R14*4), X5
	SHUFPS $0x00, X5, X5 // a1[p] in every lane
	MOVUPS (R13), X6
	MOVUPS 16(R13), X7
	MOVAPS X6, X8
	MULPS  X4, X8
	ADDPS  X8, X0
	MOVAPS X7, X9
	MULPS  X4, X9
	ADDPS  X9, X1
	MULPS  X5, X6
	ADDPS  X6, X2
	MULPS  X5, X7
	ADDPS  X7, X3
	ADDQ   R11, R13
	INCQ   R14
	JMP    taps

store:
	MOVUPS X0, (R9)(R12*1)
	MOVUPS X1, 16(R9)(R12*1)
	MOVUPS X2, (R10)(R12*1)
	MOVUPS X3, 16(R10)(R12*1)
	ADDQ   $32, R12
	JMP    cols

done:
	RET
