#include "textflag.h"

// func dotBlocksAVX(y []float64, ys int, x []float64, xs int, w []float64, pre float64, blocks int)
//
// For each block b < blocks and lane l < 4: y[b*ys+l] = pre + Σᵢ
// w[i]*x[b*xs+4i+l], i ascending. A block's four lanes are four rows of
// one output; each term broadcasts w[i], multiplies it into the block's
// x vector and adds the rounded products, so every lane runs its own
// chain in i order. Four blocks run at once (Y0-Y3), then one at a time.
TEXT ·dotBlocksAVX(SB), NOSPLIT, $0-104
	MOVQ         y_base+0(FP), DI
	MOVQ         ys+24(FP), R8
	MOVQ         x_base+32(FP), SI
	MOVQ         xs+56(FP), R9
	MOVQ         w_base+64(FP), DX
	MOVQ         w_len+72(FP), BX
	VBROADCASTSD pre+88(FP), Y15
	MOVQ         blocks+96(FP), CX
	SHLQ         $3, R8
	SHLQ         $3, R9
	LEAQ         (R8)(R8*2), R10
	LEAQ         (R9)(R9*2), R11

quad:
	CMPQ    CX, $4
	JLT     single
	VMOVAPD Y15, Y0
	VMOVAPD Y15, Y1
	VMOVAPD Y15, Y2
	VMOVAPD Y15, Y3
	MOVQ    SI, AX
	MOVQ    DX, R12
	MOVQ    BX, R13
	TESTQ   R13, R13
	JZ      quadstore

quadterm:
	VBROADCASTSD (R12), Y4
	VMULPD       (AX), Y4, Y5
	VMULPD       (AX)(R9*1), Y4, Y6
	VMULPD       (AX)(R9*2), Y4, Y7
	VMULPD       (AX)(R11*1), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R12
	ADDQ         $32, AX
	DECQ         R13
	JNZ          quadterm

quadstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R8*2)
	VMOVUPD Y3, (DI)(R10*1)
	LEAQ    (DI)(R8*4), DI
	LEAQ    (SI)(R9*4), SI
	SUBQ    $4, CX
	JMP     quad

single:
	TESTQ   CX, CX
	JZ      dotdone
	VMOVAPD Y15, Y0
	MOVQ    SI, AX
	MOVQ    DX, R12
	MOVQ    BX, R13
	TESTQ   R13, R13
	JZ      singlestore

singleterm:
	VBROADCASTSD (R12), Y4
	VMULPD       (AX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R12
	ADDQ         $32, AX
	DECQ         R13
	JNZ          singleterm

singlestore:
	VMOVUPD Y0, (DI)
	ADDQ    R8, DI
	ADDQ    R9, SI
	DECQ    CX
	JMP     single

dotdone:
	VZEROUPPER
	RET

// The constants of math.tanh and of math.archExp, written as their
// sources write them, so the assembler rounds them to the same doubles.
DATA tanhdata<>+0(SB)/8, $0x7fffffffffffffff   // |x| mask
DATA tanhdata<>+8(SB)/8, $0x8000000000000000   // sign mask
DATA tanhdata<>+16(SB)/8, $0.625
DATA tanhdata<>+24(SB)/8, $0x404601e678fc457b  // 0.5*MAXLOG, MAXLOG = log(2**127)
DATA tanhdata<>+32(SB)/8, $1.0
DATA tanhdata<>+40(SB)/8, $2.0
DATA tanhdata<>+48(SB)/8, $-9.64399179425052238628e-1   // tanhP
DATA tanhdata<>+56(SB)/8, $-9.92877231001918586564e1
DATA tanhdata<>+64(SB)/8, $-1.61468768441708447952e3
DATA tanhdata<>+72(SB)/8, $1.12811678491632931402e2     // tanhQ
DATA tanhdata<>+80(SB)/8, $2.23548839060100448583e3
DATA tanhdata<>+88(SB)/8, $4.84406305325125486048e3
DATA tanhdata<>+96(SB)/8, $1.4426950408889634073599246810018920          // LOG2E
DATA tanhdata<>+104(SB)/8, $0.69314718055966295651160180568695068359375  // LN2U
DATA tanhdata<>+112(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA tanhdata<>+120(SB)/8, $0.0625
DATA tanhdata<>+128(SB)/8, $2.4801587301587301587e-5    // exp's Taylor terms
DATA tanhdata<>+136(SB)/8, $1.9841269841269841270e-4
DATA tanhdata<>+144(SB)/8, $1.3888888888888888889e-3
DATA tanhdata<>+152(SB)/8, $8.3333333333333333333e-3
DATA tanhdata<>+160(SB)/8, $4.1666666666666666667e-2
DATA tanhdata<>+168(SB)/8, $1.6666666666666666667e-1
DATA tanhdata<>+176(SB)/8, $0.5
DATA tanhdata<>+184(SB)/8, $0x3ff                 // the exponent bias
GLOBL tanhdata<>+0(SB), RODATA, $192

// func tanhAVX(y []float64)
//
// y[i] = math.Tanh(y[i]) for i < len(y) &^ 3, four lanes at a time.
// Every lane computes math.tanh's rational branch and its exp branch, the
// latter with math.archExp's FMA path (VCVTPD2DQ rounds to nearest as
// CVTSD2SL does, the 2**n scale is built in integer lanes), each with the
// reference's operations in the reference's order; blends then pick per
// lane what the reference's branches return: ±1 above 0.5*MAXLOG, the
// exp form at |x| >= 0.625, x itself at ±0, else the rational form.
TEXT ·tanhAVX(SB), NOSPLIT, $0-24
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	SHRQ $2, CX
	JZ   tanhdone

tanhloop:
	VMOVUPD      (DI), Y0
	VBROADCASTSD tanhdata<>+0(SB), Y15
	VANDPD       Y15, Y0, Y1                  // z = |x|

	// r = x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2), s = x*x
	VMULPD       Y0, Y0, Y2
	VBROADCASTSD tanhdata<>+48(SB), Y3
	VMULPD       Y2, Y3, Y3
	VBROADCASTSD tanhdata<>+56(SB), Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y2, Y3, Y3
	VBROADCASTSD tanhdata<>+64(SB), Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD tanhdata<>+72(SB), Y4
	VADDPD       Y4, Y2, Y4
	VMULPD       Y2, Y4, Y4
	VBROADCASTSD tanhdata<>+80(SB), Y15
	VADDPD       Y15, Y4, Y4
	VMULPD       Y2, Y4, Y4
	VBROADCASTSD tanhdata<>+88(SB), Y15
	VADDPD       Y15, Y4, Y4
	VMULPD       Y2, Y0, Y5
	VMULPD       Y3, Y5, Y5
	VDIVPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y5

	// e = exp(2z): n = round(a*LOG2E), a -= n*LN2U, a -= n*LN2L (fused),
	// a *= 1/16, Taylor polynomial by fused steps, four squarings of
	// (1+a), then e = that * 2**n.
	VADDPD       Y1, Y1, Y6
	VBROADCASTSD tanhdata<>+96(SB), Y7
	VMULPD       Y6, Y7, Y7
	VCVTPD2DQY   Y7, X8
	VCVTDQ2PD    X8, Y9
	VBROADCASTSD tanhdata<>+104(SB), Y15
	VFNMADD231PD Y15, Y9, Y6
	VBROADCASTSD tanhdata<>+112(SB), Y15
	VFNMADD231PD Y15, Y9, Y6
	VBROADCASTSD tanhdata<>+120(SB), Y15
	VMULPD       Y15, Y6, Y6
	VBROADCASTSD tanhdata<>+128(SB), Y7
	VBROADCASTSD tanhdata<>+136(SB), Y15
	VFMADD213PD  Y15, Y6, Y7
	VBROADCASTSD tanhdata<>+144(SB), Y15
	VFMADD213PD  Y15, Y6, Y7
	VBROADCASTSD tanhdata<>+152(SB), Y15
	VFMADD213PD  Y15, Y6, Y7
	VBROADCASTSD tanhdata<>+160(SB), Y15
	VFMADD213PD  Y15, Y6, Y7
	VBROADCASTSD tanhdata<>+168(SB), Y15
	VFMADD213PD  Y15, Y6, Y7
	VBROADCASTSD tanhdata<>+176(SB), Y15
	VFMADD213PD  Y15, Y6, Y7
	VBROADCASTSD tanhdata<>+32(SB), Y13
	VFMADD213PD  Y13, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VBROADCASTSD tanhdata<>+40(SB), Y14
	VADDPD       Y14, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VADDPD       Y14, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VADDPD       Y14, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VADDPD       Y14, Y6, Y7
	VFMADD213PD  Y13, Y7, Y6
	VPMOVSXDQ    X8, Y9
	VBROADCASTSD tanhdata<>+184(SB), Y15
	VPADDQ       Y15, Y9, Y9
	VPSLLQ       $52, Y9, Y9
	VMULPD       Y9, Y6, Y6

	// t = 1 - 2/(e+1), with x's sign
	VADDPD       Y13, Y6, Y6
	VDIVPD       Y6, Y14, Y6
	VSUBPD       Y6, Y13, Y6
	VBROADCASTSD tanhdata<>+8(SB), Y15
	VANDPD       Y15, Y0, Y10
	VORPD        Y10, Y6, Y6

	VBROADCASTSD tanhdata<>+16(SB), Y15
	VCMPPD       $0x1d, Y15, Y1, Y11          // z >= 0.625 (GE_OQ)
	VBLENDVPD    Y11, Y6, Y5, Y5
	VBROADCASTSD tanhdata<>+24(SB), Y15
	VCMPPD       $0x1e, Y15, Y1, Y11          // z > 0.5*MAXLOG (GT_OQ)
	VORPD        Y10, Y13, Y12
	VBLENDVPD    Y11, Y12, Y5, Y5
	VXORPD       Y15, Y15, Y15
	VCMPPD       $0x00, Y15, Y0, Y11          // x == 0 (EQ_OQ)
	VBLENDVPD    Y11, Y0, Y5, Y5
	VMOVUPD      Y5, (DI)
	ADDQ         $32, DI
	DECQ         CX
	JNZ          tanhloop

tanhdone:
	VZEROUPPER
	RET
