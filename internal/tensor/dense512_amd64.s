#include "textflag.h"

// The AVX-512 form of the dense kernel (see the top of matmul.go): one
// 8-column weight panel is one 512-bit vector where denseAVX2
// (dense_amd64.s) needs two 256-bit ones, so each step issues half the
// multiplies and adds, with the same operations in the same order per
// lane. dense calls it only
// where CPUID reports AVX512F and the OS saves the ZMM and opmask state
// (cpu_amd64.go). It uses only AVX512F instructions and Z0–Z15.

// func denseAVX512(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool)
//
// Element (r, kk) of x sits at x[r·xr + kk·xs]; output column j's weight
// for input kk at w[(j/8)·wp + kk·wk + j%8], so each panel's eight lanes
// are adjacent and every other step is a stride. Rows go four at a time
// (then one at a time for the rest); for each block, every panel of
// eight output columns keeps one accumulator per row. Per input kk the
// panel's eight weights are loaded once, multiplied by each row's x
// element broadcast from memory (VMULPD.BCST) and added (VADDPD) —
// never fused — so every lane sums in ascending k from +0 exactly like
// MulVec. The accumulators then carry on over the kc suffix inputs of
// c, whose weights follow x's in the panel: per input one weight load
// and one broadcast multiply serve the whole block, and the product is
// added to every row's accumulator. An empty b adds nothing, which is
// exact: a sum from +0 is never −0. The bias add and the ReLU (VMAXPD
// against +0 with the sum as the first source: NaN and −0 give +0) run
// in registers before the store. Every weight and bias load and every
// store goes through the lane mask K1: all eight lanes for a full panel,
// the first n mod 8 for the partial last one, whose masked-off lanes
// are neither read (a masked load does not fault on them) nor written.
//
// Registers: AX x row stride (bytes), CX 3·AX, R9 x element stride
// (bytes), BX dst row stride (bytes), R12 weight k stride (bytes), DX
// dst block base, R13 x block base, SI x cursor and then c cursor, DI
// dst cursor, R8 w panel base, R14 w cursor, R10 rows left, R11 k and
// kc counter and scratch; K1 the panel's lane mask, K2 the tail mask,
// K3 all eight lanes; Z0–Z3 the rows' accumulators, Z4 the weights (or
// the bias), Z5–Z8 the products, Z14 +0. Locals: the columns left in the row and
// the panel stride (bytes).
TEXT ·denseAVX512(SB), NOSPLIT, $16-185
	MOVQ n+144(FP), BX
	MOVQ BX, R11
	ANDQ $7, R11
	XORQ R8, R8
	BTSQ R11, R8
	DECQ R8
	KMOVW R8, K2
	MOVQ $0xff, R8
	KMOVW R8, K3
	SHLQ $3, BX
	MOVQ x_base+24(FP), R13
	MOVQ dst_base+0(FP), DX
	MOVQ rows+120(FP), R10
	MOVQ xr+160(FP), AX
	SHLQ $3, AX
	LEAQ (AX)(AX*2), CX
	MOVQ xs+152(FP), R9
	SHLQ $3, R9
	MOVQ wk+176(FP), R12
	SHLQ $3, R12
	MOVQ wp+168(FP), R11
	SHLQ $3, R11
	MOVQ R11, wpb-16(SP)
	VPXORQ Z14, Z14, Z14

block4:
	CMPQ R10, $4
	JLT  row1
	MOVQ w_base+48(FP), R8
	MOVQ DX, DI
	MOVQ n+144(FP), R11
	MOVQ R11, cols-8(SP)

panel4:
	CMPQ cols-8(SP), $0
	JLE  next4
	KMOVW K3, K1
	CMPQ cols-8(SP), $8
	JGE  acc4
	KMOVW K2, K1

acc4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ R13, SI
	MOVQ R8, R14
	MOVQ k+128(FP), R11
	TESTQ R11, R11
	JZ   sfx4

k4:
	VMOVUPD.Z    (R14), K1, Z4
	VMULPD.BCST  (SI), Z4, Z5
	VADDPD       Z5, Z0, Z0
	VMULPD.BCST  (SI)(AX*1), Z4, Z6
	VADDPD       Z6, Z1, Z1
	VMULPD.BCST  (SI)(AX*2), Z4, Z7
	VADDPD       Z7, Z2, Z2
	VMULPD.BCST  (SI)(CX*1), Z4, Z8
	VADDPD       Z8, Z3, Z3
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k4

sfx4:
	MOVQ kc+136(FP), R11
	TESTQ R11, R11
	JZ   bias4
	MOVQ c_base+96(FP), SI

c4:
	VMOVUPD.Z    (R14), K1, Z4
	VMULPD.BCST  (SI), Z4, Z5
	VADDPD       Z5, Z0, Z0
	VADDPD       Z5, Z1, Z1
	VADDPD       Z5, Z2, Z2
	VADDPD       Z5, Z3, Z3
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c4

bias4:
	CMPQ b_len+80(FP), $0
	JEQ  relu4
	MOVQ DI, R11
	SUBQ DX, R11
	ADDQ b_base+72(FP), R11
	VMOVUPD.Z (R11), K1, Z4
	VADDPD    Z4, Z0, Z0
	VADDPD    Z4, Z1, Z1
	VADDPD    Z4, Z2, Z2
	VADDPD    Z4, Z3, Z3

relu4:
	CMPB relu+184(FP), $0
	JEQ  store4
	VMAXPD Z14, Z0, Z0
	VMAXPD Z14, Z1, Z1
	VMAXPD Z14, Z2, Z2
	VMAXPD Z14, Z3, Z3

store4:
	LEAQ    (DI)(BX*2), R11
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K1, (DI)(BX*1)
	VMOVUPD Z2, K1, (R11)
	VMOVUPD Z3, K1, (R11)(BX*1)
	ADDQ    wpb-16(SP), R8
	ADDQ    $64, DI
	SUBQ    $8, cols-8(SP)
	JMP     panel4

next4:
	LEAQ (R13)(AX*4), R13
	LEAQ (DX)(BX*4), DX
	SUBQ $4, R10
	JMP  block4

row1:
	TESTQ R10, R10
	JZ    done
	MOVQ  w_base+48(FP), R8
	MOVQ  DX, DI
	MOVQ  n+144(FP), R11
	MOVQ  R11, cols-8(SP)

panel1:
	CMPQ cols-8(SP), $0
	JLE  next1
	KMOVW K3, K1
	CMPQ cols-8(SP), $8
	JGE  acc1
	KMOVW K2, K1

acc1:
	VPXORQ Z0, Z0, Z0
	MOVQ R13, SI
	MOVQ R8, R14
	MOVQ k+128(FP), R11
	TESTQ R11, R11
	JZ   sfx1

k1:
	VMOVUPD.Z    (R14), K1, Z4
	VMULPD.BCST  (SI), Z4, Z5
	VADDPD       Z5, Z0, Z0
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k1

sfx1:
	MOVQ kc+136(FP), R11
	TESTQ R11, R11
	JZ   bias1
	MOVQ c_base+96(FP), SI

c1:
	VMOVUPD.Z    (R14), K1, Z4
	VMULPD.BCST  (SI), Z4, Z5
	VADDPD       Z5, Z0, Z0
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c1

bias1:
	CMPQ b_len+80(FP), $0
	JEQ  relu1
	MOVQ DI, R11
	SUBQ DX, R11
	ADDQ b_base+72(FP), R11
	VMOVUPD.Z (R11), K1, Z4
	VADDPD    Z4, Z0, Z0

relu1:
	CMPB relu+184(FP), $0
	JEQ  store1
	VMAXPD Z14, Z0, Z0

store1:
	VMOVUPD Z0, K1, (DI)
	ADDQ    wpb-16(SP), R8
	ADDQ    $64, DI
	SUBQ    $8, cols-8(SP)
	JMP     panel1

next1:
	ADDQ AX, R13
	ADDQ BX, DX
	DECQ R10
	JMP  row1

done:
	VZEROUPPER
	RET
