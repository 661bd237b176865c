#include "textflag.h"

// The AVX-512 and AVX2 forms of the nearest-point kernel (see the top
// of nearest.go). p holds the points dimension-major, stride lanes per
// dimension (a multiple of 8, the padding lanes NaN). Each block of
// eight lanes keeps one distance per point: per dimension it broadcasts
// v[e], subtracts the block's eight coordinates (v[e] first, as the Go
// loop has it), squares (VMULPD, never fused with the add) and adds, so
// every lane sums its point's distance in ascending e from +0 exactly
// like nearestGeneric. A running minimum per lane then takes the
// block's distances through VMINPD with the distance as the first
// source, which keeps the minimum when the distance is NaN or not below
// it: `d < min` lane by lane. The last step folds the lanes' minima,
// none NaN or −0, into one.

// func nearestAVX512(v, p []float64, dim, stride int) float64
//
// Registers: SI v cursor, DI the block's first coordinate, R10 the
// coordinate cursor, CX dim, DX lanes left, BX dimension stride
// (bytes), R11 dimension counter; Z0 the block's distances, Z1 the
// differences, Z13 the running minima.
TEXT ·nearestAVX512(SB), NOSPLIT, $0-72
	MOVQ         p_base+24(FP), DI
	MOVQ         dim+48(FP), CX
	MOVQ         stride+56(FP), DX
	MOVQ         DX, BX
	SHLQ         $3, BX
	MOVQ         $0x7ff0000000000000, AX
	MOVQ         AX, X13
	VBROADCASTSD X13, Z13

block:
	VPXORQ Z0, Z0, Z0
	MOVQ   v_base+0(FP), SI
	MOVQ   DI, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     fold

dims:
	VBROADCASTSD (SI), Z1
	VSUBPD       (R10), Z1, Z1
	VMULPD       Z1, Z1, Z1
	VADDPD       Z1, Z0, Z0
	ADDQ         $8, SI
	ADDQ         BX, R10
	DECQ         R11
	JNZ          dims

fold:
	VMINPD Z13, Z0, Z13
	ADDQ   $64, DI
	SUBQ   $8, DX
	JNZ    block
	VEXTRACTF64X4 $1, Z13, Y0
	VMINPD        Y0, Y13, Y13
	VEXTRACTF128  $1, Y13, X0
	VMINPD        X0, X13, X13
	VPERMILPD     $1, X13, X0
	VMINSD        X0, X13, X13
	VZEROUPPER
	MOVSD         X13, ret+64(FP)
	RET

// func nearestAVX2(v, p []float64, dim, stride int) float64
//
// nearestAVX512 on 256-bit registers: each block of eight lanes runs as
// two halves of four side by side. Registers as in nearestAVX512; Y0
// and Y2 the halves' distances, Y1 the broadcast, Y3 and Y4 the
// differences, Y13 the running minima.
TEXT ·nearestAVX2(SB), NOSPLIT, $0-72
	MOVQ         p_base+24(FP), DI
	MOVQ         dim+48(FP), CX
	MOVQ         stride+56(FP), DX
	MOVQ         DX, BX
	SHLQ         $3, BX
	MOVQ         $0x7ff0000000000000, AX
	MOVQ         AX, X13
	VBROADCASTSD X13, Y13

blockx:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	MOVQ   v_base+0(FP), SI
	MOVQ   DI, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     foldx

dimsx:
	VBROADCASTSD (SI), Y1
	VSUBPD       (R10), Y1, Y3
	VSUBPD       32(R10), Y1, Y4
	VMULPD       Y3, Y3, Y3
	VMULPD       Y4, Y4, Y4
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y2, Y2
	ADDQ         $8, SI
	ADDQ         BX, R10
	DECQ         R11
	JNZ          dimsx

foldx:
	VMINPD Y13, Y0, Y13
	VMINPD Y13, Y2, Y13
	ADDQ   $64, DI
	SUBQ   $8, DX
	JNZ    blockx
	VEXTRACTF128 $1, Y13, X0
	VMINPD       X0, X13, X13
	VPERMILPD    $1, X13, X0
	VMINSD       X0, X13, X13
	VZEROUPPER
	MOVSD        X13, ret+64(FP)
	RET
