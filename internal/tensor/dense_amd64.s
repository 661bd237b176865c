#include "textflag.h"

// Lane masks for the last, partial panel: entry t (t = n mod 4, 1..3)
// enables the first t lanes of its loads and stores. Entry 0 is never
// used.
DATA tailmask<>+0x00(SB)/8, $0
DATA tailmask<>+0x08(SB)/8, $0
DATA tailmask<>+0x10(SB)/8, $0
DATA tailmask<>+0x18(SB)/8, $0
DATA tailmask<>+0x20(SB)/8, $-1
DATA tailmask<>+0x28(SB)/8, $0
DATA tailmask<>+0x30(SB)/8, $0
DATA tailmask<>+0x38(SB)/8, $0
DATA tailmask<>+0x40(SB)/8, $-1
DATA tailmask<>+0x48(SB)/8, $-1
DATA tailmask<>+0x50(SB)/8, $0
DATA tailmask<>+0x58(SB)/8, $0
DATA tailmask<>+0x60(SB)/8, $-1
DATA tailmask<>+0x68(SB)/8, $-1
DATA tailmask<>+0x70(SB)/8, $-1
DATA tailmask<>+0x78(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
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

// func denseAVX2(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool)
//
// Element (r, kk) of x sits at x[r·xr + kk·xs]; output column j's weight
// for input kk at w[(j/4)·wp + kk·wk + j%4], so each panel's four lanes
// are adjacent and every other step is a stride. Rows go four at a time
// (then one at a time for the rest); for each block, every panel of four
// output columns keeps one accumulator per row. Per input kk the panel's
// four weights are loaded once, each row's x element is broadcast,
// multiplied (VMULPD) and added (VADDPD) — never fused — so every lane
// sums in ascending k from +0 exactly like MulVec. The accumulators then
// carry on over the kc suffix inputs of c, whose weights follow x's in
// the panel: per input one weight load, one broadcast and one multiply
// serve the whole block, and the product is added to every row's
// accumulator (each row would compute the same product). An empty b adds
// nothing, which is exact: a sum from +0 is never −0. The bias add and
// the ReLU (VMAXPD against +0 with the sum as the first source: NaN and
// −0 give +0) run in registers before the store. The partial last panel
// loads its weights and bias and stores its outputs through the lane
// mask, so no access goes past an operand.
//
// Registers: AX x row stride (bytes), CX 3·AX, R9 x element stride
// (bytes), BX dst row stride (bytes), R12 weight k stride (bytes), DX
// dst block base, R13 x block base, SI x cursor and then c cursor, DI
// dst cursor, R8 w panel base, R14 w cursor, R10 rows left, R11 k and
// kc counter and scratch; Y13 tail lane mask, Y14 +0. Locals: the
// columns left in the row and the panel stride (bytes).
TEXT ·denseAVX2(SB), NOSPLIT, $16-185
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
	MOVQ n+144(FP), BX
	MOVQ BX, R11
	ANDQ $3, R11
	SHLQ $5, R11
	LEAQ tailmask<>(SB), R8
	VMOVUPD (R8)(R11*1), Y13
	SHLQ $3, BX
	VXORPD Y14, Y14, Y14

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
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R13, SI
	MOVQ R8, R14
	MOVQ k+128(FP), R11
	TESTQ R11, R11
	JZ   sfx4
	CMPQ cols-8(SP), $4
	JLT  k4m

k4:
	VMOVUPD      (R14), Y4
	VBROADCASTSD (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (SI)(AX*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (SI)(AX*2), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (SI)(CX*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k4
	JMP          sfx4

k4m:
	VMASKMOVPD   (R14), Y13, Y4
	VBROADCASTSD (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (SI)(AX*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (SI)(AX*2), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (SI)(CX*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k4m

sfx4:
	MOVQ kc+136(FP), R11
	TESTQ R11, R11
	JZ   bias4
	MOVQ c_base+96(FP), SI
	CMPQ cols-8(SP), $4
	JLT  c4m

c4:
	VMOVUPD      (R14), Y4
	VBROADCASTSD (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y5, Y2, Y2
	VADDPD       Y5, Y3, Y3
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c4
	JMP          bias4

c4m:
	VMASKMOVPD   (R14), Y13, Y4
	VBROADCASTSD (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y5, Y2, Y2
	VADDPD       Y5, Y3, Y3
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c4m

bias4:
	CMPQ b_len+80(FP), $0
	JEQ  relu4
	MOVQ DI, R11
	SUBQ DX, R11
	ADDQ b_base+72(FP), R11
	CMPQ cols-8(SP), $4
	JLT  biasm4
	VMOVUPD (R11), Y4
	JMP  addb4

biasm4:
	VMASKMOVPD (R11), Y13, Y4

addb4:
	VADDPD Y4, Y0, Y0
	VADDPD Y4, Y1, Y1
	VADDPD Y4, Y2, Y2
	VADDPD Y4, Y3, Y3

relu4:
	CMPB relu+184(FP), $0
	JEQ  store4
	VMAXPD Y14, Y0, Y0
	VMAXPD Y14, Y1, Y1
	VMAXPD Y14, Y2, Y2
	VMAXPD Y14, Y3, Y3

store4:
	LEAQ (DI)(BX*2), R11
	CMPQ cols-8(SP), $4
	JLT  mask4
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(BX*1)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, (R11)(BX*1)
	JMP  adv4

mask4:
	VMASKMOVPD Y0, Y13, (DI)
	VMASKMOVPD Y1, Y13, (DI)(BX*1)
	VMASKMOVPD Y2, Y13, (R11)
	VMASKMOVPD Y3, Y13, (R11)(BX*1)

adv4:
	ADDQ wpb-16(SP), R8
	ADDQ $32, DI
	SUBQ $4, cols-8(SP)
	JMP  panel4

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
	VXORPD Y0, Y0, Y0
	MOVQ R13, SI
	MOVQ R8, R14
	MOVQ k+128(FP), R11
	TESTQ R11, R11
	JZ   sfx1
	CMPQ cols-8(SP), $4
	JLT  k1m

k1:
	VBROADCASTSD (SI), Y5
	VMULPD       (R14), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k1
	JMP          sfx1

k1m:
	VMASKMOVPD   (R14), Y13, Y4
	VBROADCASTSD (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k1m

sfx1:
	MOVQ kc+136(FP), R11
	TESTQ R11, R11
	JZ   bias1
	MOVQ c_base+96(FP), SI
	CMPQ cols-8(SP), $4
	JLT  c1m

c1:
	VBROADCASTSD (SI), Y5
	VMULPD       (R14), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c1
	JMP          bias1

c1m:
	VMASKMOVPD   (R14), Y13, Y4
	VBROADCASTSD (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c1m

bias1:
	CMPQ b_len+80(FP), $0
	JEQ  relu1
	MOVQ DI, R11
	SUBQ DX, R11
	ADDQ b_base+72(FP), R11
	CMPQ cols-8(SP), $4
	JLT  biasm1
	VADDPD (R11), Y0, Y0
	JMP  relu1

biasm1:
	VMASKMOVPD (R11), Y13, Y4
	VADDPD     Y4, Y0, Y0

relu1:
	CMPB relu+184(FP), $0
	JEQ  store1
	VMAXPD Y14, Y0, Y0

store1:
	CMPQ cols-8(SP), $4
	JLT  mask1
	VMOVUPD Y0, (DI)
	JMP  adv1

mask1:
	VMASKMOVPD Y0, Y13, (DI)

adv1:
	ADDQ wpb-16(SP), R8
	ADDQ $32, DI
	SUBQ $4, cols-8(SP)
	JMP  panel1

next1:
	ADDQ AX, R13
	ADDQ BX, DX
	DECQ R10
	JMP  row1

done:
	VZEROUPPER
	RET
