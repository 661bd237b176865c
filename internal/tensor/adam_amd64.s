#include "textflag.h"

// func adamAVX2(value, grad, m, v []float64, wd, b1, c1, b2, c2, bc1, bc2, lr, eps float64)
//
// AdamStep.Update four elements per step, over the first len(value)/4·4
// elements: the Go loop's operations in its order, each a separate
// VMULPD, VADDPD, VSUBPD, VDIVPD or VSQRTPD (never fused), so every lane
// gives the Go loop's bits.
//
// Registers: SI value, DI grad, R8 m, R9 v, CX steps left; Y0 wd, Y1 β₁,
// Y2 1−β₁, Y3 β₂, Y4 1−β₂, Y5 bc1, Y6 bc2, Y7 lr, Y8 ε; Y9–Y13 scratch.
TEXT ·adamAVX2(SB), NOSPLIT, $0-168
	MOVQ value_len+8(FP), CX
	SHRQ $2, CX
	JZ   done
	MOVQ value_base+0(FP), SI
	MOVQ grad_base+24(FP), DI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	VBROADCASTSD wd+96(FP), Y0
	VBROADCASTSD b1+104(FP), Y1
	VBROADCASTSD c1+112(FP), Y2
	VBROADCASTSD b2+120(FP), Y3
	VBROADCASTSD c2+128(FP), Y4
	VBROADCASTSD bc1+136(FP), Y5
	VBROADCASTSD bc2+144(FP), Y6
	VBROADCASTSD lr+152(FP), Y7
	VBROADCASTSD eps+160(FP), Y8

loop:
	VMOVUPD (SI), Y9
	VMULPD  Y9, Y0, Y11  // wd·value
	VMOVUPD (DI), Y10
	VADDPD  Y11, Y10, Y10 // g = grad + wd·value
	VMOVUPD (R8), Y11
	VMULPD  Y11, Y1, Y11  // β₁·m
	VMULPD  Y10, Y2, Y12  // (1−β₁)·g
	VADDPD  Y12, Y11, Y11 // m
	VMOVUPD Y11, (R8)
	VMOVUPD (R9), Y12
	VMULPD  Y12, Y3, Y12  // β₂·v
	VMULPD  Y10, Y4, Y13  // (1−β₂)·g
	VMULPD  Y10, Y13, Y13 // (1−β₂)·g·g
	VADDPD  Y13, Y12, Y12 // v
	VMOVUPD Y12, (R9)
	VDIVPD  Y5, Y11, Y11  // m/bc1
	VMULPD  Y11, Y7, Y11  // lr·(m/bc1)
	VDIVPD  Y6, Y12, Y12  // v/bc2
	VSQRTPD Y12, Y12
	VADDPD  Y8, Y12, Y12  // √(v/bc2) + ε
	VDIVPD  Y12, Y11, Y11
	VSUBPD  Y11, Y9, Y9
	VMOVUPD Y9, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET
