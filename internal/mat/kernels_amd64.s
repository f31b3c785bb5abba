//go:build amd64

#include "textflag.h"

// AVX2 row-update primitives behind madd4/msub4/madd1/msub1 (see
// kernels_amd64.go). Determinism rules, shared by every routine:
//
//   - each product is a separate VMULPD/VMULSD, rounded before the
//     VADDPD/VSUBPD that applies it — never an FMA;
//   - per element the terms apply in argument order b0, b1, b2, b3, exactly
//     as the generic loops do, so SIMD only spreads the work across j;
//   - the scalar tail uses VEX-encoded scalar ops (VMOVSD/VMULSD/VADDSD):
//     a legacy-SSE instruction after a 256-bit op pays the AVX–SSE
//     transition penalty;
//   - every routine ends in VZEROUPPER before returning to Go code.

// STEP4 applies the four terms to the 4-lane vector in ACC at byte offset
// OFF from index AX, with OP (VADDPD or VSUBPD) accumulating each product.
#define STEP4(OP, OFF, ACC, TMP) \
	VMULPD OFF(R8)(AX*8), Y0, TMP  \
	OP     TMP, ACC, ACC           \
	VMULPD OFF(R9)(AX*8), Y1, TMP  \
	OP     TMP, ACC, ACC           \
	VMULPD OFF(R10)(AX*8), Y2, TMP \
	OP     TMP, ACC, ACC           \
	VMULPD OFF(R11)(AX*8), Y3, TMP \
	OP     TMP, ACC, ACC

// TAIL4 is STEP4 for the single element at index AX.
#define TAIL4(OP) \
	VMOVSD (DI)(AX*8), X4  \
	VMULSD (R8)(AX*8), X0, X5  \
	OP     X5, X4, X4      \
	VMULSD (R9)(AX*8), X1, X5  \
	OP     X5, X4, X4      \
	VMULSD (R10)(AX*8), X2, X5 \
	OP     X5, X4, X4      \
	VMULSD (R11)(AX*8), X3, X5 \
	OP     X5, X4, X4      \
	VMOVSD X4, (DI)(AX*8)

// BODY4 is the whole four-row update of dst (DI, length CX) with the
// coefficients at SI and the source rows at R8–R11: 8 lanes per iteration
// in two independent vectors, then one 4-lane step, then the scalar tail.
#define BODY4(VOP, SOP) \
	VBROADCASTSD (SI), Y0      \
	VBROADCASTSD 8(SI), Y1     \
	VBROADCASTSD 16(SI), Y2    \
	VBROADCASTSD 24(SI), Y3    \
	XORQ AX, AX                \
	MOVQ CX, BX                \
	ANDQ $~7, BX               \
	JZ   quad                  \
oct:                           \
	VMOVUPD (DI)(AX*8), Y4     \
	VMOVUPD 32(DI)(AX*8), Y6   \
	STEP4(VOP, 0, Y4, Y5)      \
	STEP4(VOP, 32, Y6, Y7)     \
	VMOVUPD Y4, (DI)(AX*8)     \
	VMOVUPD Y6, 32(DI)(AX*8)   \
	ADDQ $8, AX                \
	CMPQ AX, BX                \
	JB   oct                   \
quad:                          \
	MOVQ CX, BX                \
	SUBQ AX, BX                \
	CMPQ BX, $4                \
	JB   tail                  \
	VMOVUPD (DI)(AX*8), Y4     \
	STEP4(VOP, 0, Y4, Y5)      \
	VMOVUPD Y4, (DI)(AX*8)     \
	ADDQ $4, AX                \
tail:                          \
	CMPQ AX, CX                \
	JAE  done                  \
	TAIL4(SOP)                 \
	INCQ AX                    \
	JMP  tail                  \
done:                          \
	VZEROUPPER                 \
	RET

// BODY1 is the single-row update dst[j] OP= a·b[j] of dst (DI, length CX)
// with the coefficient at SI and the source row at R8.
#define BODY1(VOP, SOP) \
	VBROADCASTSD (SI), Y0      \
	XORQ AX, AX                \
	MOVQ CX, BX                \
	ANDQ $~15, BX              \
	JZ   quad                  \
hex:                           \
	VMULPD (R8)(AX*8), Y0, Y1  \
	VMULPD 32(R8)(AX*8), Y0, Y2 \
	VMULPD 64(R8)(AX*8), Y0, Y3 \
	VMULPD 96(R8)(AX*8), Y0, Y4 \
	VMOVUPD (DI)(AX*8), Y5     \
	VMOVUPD 32(DI)(AX*8), Y6   \
	VMOVUPD 64(DI)(AX*8), Y7   \
	VMOVUPD 96(DI)(AX*8), Y8   \
	VOP  Y1, Y5, Y5            \
	VOP  Y2, Y6, Y6            \
	VOP  Y3, Y7, Y7            \
	VOP  Y4, Y8, Y8            \
	VMOVUPD Y5, (DI)(AX*8)     \
	VMOVUPD Y6, 32(DI)(AX*8)   \
	VMOVUPD Y7, 64(DI)(AX*8)   \
	VMOVUPD Y8, 96(DI)(AX*8)   \
	ADDQ $16, AX               \
	CMPQ AX, BX                \
	JB   hex                   \
quad:                          \
	MOVQ CX, BX                \
	SUBQ AX, BX                \
	CMPQ BX, $4                \
	JB   tail                  \
	VMULPD (R8)(AX*8), Y0, Y1  \
	VMOVUPD (DI)(AX*8), Y5     \
	VOP  Y1, Y5, Y5            \
	VMOVUPD Y5, (DI)(AX*8)     \
	ADDQ $4, AX                \
	JMP  quad                  \
tail:                          \
	CMPQ AX, CX                \
	JAE  done                  \
	VMOVSD (DI)(AX*8), X5      \
	VMULSD (R8)(AX*8), X0, X1  \
	SOP  X1, X5, X5            \
	VMOVSD X5, (DI)(AX*8)      \
	INCQ AX                    \
	JMP  tail                  \
done:                          \
	VZEROUPPER                 \
	RET

// func madd4AVX2(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64)
TEXT ·madd4AVX2(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a+24(FP), SI
	MOVQ b0_base+32(FP), R8
	MOVQ b1_base+56(FP), R9
	MOVQ b2_base+80(FP), R10
	MOVQ b3_base+104(FP), R11
	BODY4(VADDPD, VADDSD)

// func msub4AVX2(dst []float64, a *[4]float64, b0, b1, b2, b3 []float64)
TEXT ·msub4AVX2(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a+24(FP), SI
	MOVQ b0_base+32(FP), R8
	MOVQ b1_base+56(FP), R9
	MOVQ b2_base+80(FP), R10
	MOVQ b3_base+104(FP), R11
	BODY4(VSUBPD, VSUBSD)

// func madd1AVX2(dst []float64, a float64, b []float64)
TEXT ·madd1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	LEAQ a+24(FP), SI
	MOVQ b_base+32(FP), R8
	BODY1(VADDPD, VADDSD)

// func msub1AVX2(dst []float64, a float64, b []float64)
TEXT ·msub1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	LEAQ a+24(FP), SI
	MOVQ b_base+32(FP), R8
	BODY1(VSUBPD, VSUBSD)

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
