#include "textflag.h"

// func subBlockAVX(dst, src, col, row []float64, kn, cs, rs int, d float64)
//
// dst[l] = (src[l] - Σₖ col[k*cs]*row[k*rs+l]) / d for l < 16, k
// ascending. Lanes l..l+3 live in one of Y0-Y3; each step broadcasts
// col[k*cs], multiplies it into the four row vectors and subtracts the
// rounded products, so every lane runs its own chain in k order.
TEXT ·subBlockAVX(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ col_base+48(FP), AX
	MOVQ row_base+72(FP), BX
	MOVQ kn+96(FP), CX
	MOVQ cs+104(FP), R8
	MOVQ rs+112(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	TESTQ CX, CX
	JLE   subdone

subloop:
	VBROADCASTSD (AX), Y4
	VMULPD       0(BX), Y4, Y5
	VMULPD       32(BX), Y4, Y6
	VMULPD       64(BX), Y4, Y7
	VMULPD       96(BX), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         R8, AX
	ADDQ         R9, BX
	DECQ         CX
	JNZ          subloop

subdone:
	VBROADCASTSD d+120(FP), Y4
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VDIVPD       Y4, Y2, Y2
	VDIVPD       Y4, Y3, Y3
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VZEROUPPER
	RET

// func gramBlockAVX(dst0, dst1, col0, col1, row []float64, kn, rs int)
//
// dst0[l] = Σₖ col0[k*rs]*row[k*rs+l] and dst1[l] likewise with col1,
// for l < 16, k ascending from +0. Row k's four vectors are loaded once
// and multiplied by both broadcasts; Y0-Y3 hold dst0's sums, Y4-Y7
// dst1's.
TEXT ·gramBlockAVX(SB), NOSPLIT, $0-136
	MOVQ   col0_base+48(FP), AX
	MOVQ   col1_base+72(FP), DX
	MOVQ   row_base+96(FP), BX
	MOVQ   kn+120(FP), CX
	MOVQ   rs+128(FP), R9
	SHLQ   $3, R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JLE    gramdone

gramloop:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (DX), Y9
	VMOVUPD      0(BX), Y10
	VMOVUPD      32(BX), Y11
	VMOVUPD      64(BX), Y12
	VMOVUPD      96(BX), Y13
	VMULPD       Y10, Y8, Y14
	VMULPD       Y10, Y9, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y4, Y4
	VMULPD       Y11, Y8, Y14
	VMULPD       Y11, Y9, Y15
	VADDPD       Y14, Y1, Y1
	VADDPD       Y15, Y5, Y5
	VMULPD       Y12, Y8, Y14
	VMULPD       Y12, Y9, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y6, Y6
	VMULPD       Y13, Y8, Y14
	VMULPD       Y13, Y9, Y15
	VADDPD       Y14, Y3, Y3
	VADDPD       Y15, Y7, Y7
	ADDQ         R9, AX
	ADDQ         R9, DX
	ADDQ         R9, BX
	DECQ         CX
	JNZ          gramloop

gramdone:
	MOVQ    dst0_base+0(FP), DI
	MOVQ    dst1_base+24(FP), SI
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 0(SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, 64(SI)
	VMOVUPD Y7, 96(SI)
	VZEROUPPER
	RET
