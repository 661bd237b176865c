#include "textflag.h"

// The amd64 assembly of package tensor: CPUID and XGETBV, which
// cpu_amd64.go reads once at start-up to choose a dense kernel, and the
// AVX2 form of the dense kernel (see the top of matmul.go), which runs
// where the CPU has AVX2 but not AVX-512F. The AVX-512 form is in
// dense512_amd64.s; all three forms read one packed layout, panels of
// eight output columns, and give the same bits.

// Lane masks for the last, partial panel of t = n mod 8 live columns:
// the 64 bytes from tailmask<>+64−8t hold t all-ones lanes and then
// zeros. The panel's first four lanes load through the first 32 bytes
// (Y13), its last four through the next 32 (Y14).
DATA tailmask<>+0x00(SB)/8, $-1
DATA tailmask<>+0x08(SB)/8, $-1
DATA tailmask<>+0x10(SB)/8, $-1
DATA tailmask<>+0x18(SB)/8, $-1
DATA tailmask<>+0x20(SB)/8, $-1
DATA tailmask<>+0x28(SB)/8, $-1
DATA tailmask<>+0x30(SB)/8, $-1
DATA tailmask<>+0x38(SB)/8, $-1
DATA tailmask<>+0x40(SB)/8, $0
DATA tailmask<>+0x48(SB)/8, $0
DATA tailmask<>+0x50(SB)/8, $0
DATA tailmask<>+0x58(SB)/8, $0
DATA tailmask<>+0x60(SB)/8, $0
DATA tailmask<>+0x68(SB)/8, $0
DATA tailmask<>+0x70(SB)/8, $0
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
// for input kk at w[(j/8)·wp + kk·wk + j%8], so each panel's eight lanes
// are adjacent and every other step is a stride. Rows go four at a time
// (then one at a time for the rest); for each block, every panel of
// eight output columns keeps two accumulators per row, one per 256-bit
// half. Per input kk the panel's eight weights are loaded once (two
// vectors), each row's x element is broadcast, multiplied (VMULPD) and
// added (VADDPD) — never fused — so every lane sums in ascending k from
// +0 exactly like MulVec. The accumulators then carry on over the kc
// suffix inputs of c, whose weights follow x's in the panel: per input
// one weight load, one broadcast and one multiply per half serve the
// whole block, and the products are added to every row's accumulators
// (each row would compute the same product). An empty b adds nothing,
// which is exact: a sum from +0 is never −0. The bias add and the ReLU
// (VMAXPD against +0 with the sum as the first source: NaN and −0 give
// +0) run in registers before the store. A partial last panel of five
// to seven columns loads its second half's weights and bias and stores
// its outputs through the lane mask Y14; one of one to four columns
// runs as a single half (the half loops, four accumulators, mask Y13).
// So no access goes past an operand.
//
// Registers: AX x row stride (bytes), CX 3·AX, R9 x element stride
// (bytes), BX dst row stride (bytes), R12 weight k stride (bytes), DX
// dst block base, R13 x block base, SI x cursor and then c cursor, DI
// dst cursor, R8 w panel base, R14 w cursor, R10 rows left, R11 k and
// kc counter and scratch; Y0–Y3 the rows' first-half accumulators, Y4–Y7
// their second-half ones, Y8 and Y9 the weights, Y10 the broadcast, Y11
// and Y12 the products, Y13 and Y14 the tail lane masks, Y15 +0. Locals:
// the columns left in the row and the panel stride (bytes).
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
	ANDQ $7, R11
	NEGQ R11
	LEAQ tailmask<>+64(SB), R8
	VMOVUPD (R8)(R11*8), Y13
	VMOVUPD 32(R8)(R11*8), Y14
	SHLQ $3, BX
	VXORPD Y15, Y15, Y15

block4:
	CMPQ         R10, $4
	JLT          row1
	MOVQ         w_base+48(FP), R8
	MOVQ         DX, DI
	MOVQ         n+144(FP), R11
	MOVQ         R11, cols-8(SP)

panel4:
	CMPQ         cols-8(SP), $0
	JLE          next4
	CMPQ         cols-8(SP), $4
	JLE          half4
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	MOVQ         R13, SI
	MOVQ         R8, R14
	MOVQ         k+128(FP), R11
	TESTQ        R11, R11
	JZ           sfx4
	CMPQ         cols-8(SP), $8
	JLT          k4m

k4:
	VMOVUPD      (R14), Y8
	VMOVUPD      32(R14), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y4, Y4
	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y1, Y1
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(AX*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y6, Y6
	VBROADCASTSD (SI)(CX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y3, Y3
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k4
	JMP          sfx4

k4m:
	VMOVUPD      (R14), Y8
	VMASKMOVPD   32(R14), Y14, Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y4, Y4
	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y1, Y1
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(AX*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y6, Y6
	VBROADCASTSD (SI)(CX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y3, Y3
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k4m

sfx4:
	MOVQ         kc+136(FP), R11
	TESTQ        R11, R11
	JZ           bias4
	MOVQ         c_base+96(FP), SI
	CMPQ         cols-8(SP), $8
	JLT          c4m

c4:
	VMOVUPD      (R14), Y8
	VMOVUPD      32(R14), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y4, Y4
	VADDPD       Y11, Y1, Y1
	VADDPD       Y12, Y5, Y5
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y6, Y6
	VADDPD       Y11, Y3, Y3
	VADDPD       Y12, Y7, Y7
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c4
	JMP          bias4

c4m:
	VMOVUPD      (R14), Y8
	VMASKMOVPD   32(R14), Y14, Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y4, Y4
	VADDPD       Y11, Y1, Y1
	VADDPD       Y12, Y5, Y5
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y6, Y6
	VADDPD       Y11, Y3, Y3
	VADDPD       Y12, Y7, Y7
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c4m

bias4:
	CMPQ         b_len+80(FP), $0
	JEQ          relu4
	MOVQ         DI, R11
	SUBQ         DX, R11
	ADDQ         b_base+72(FP), R11
	CMPQ         cols-8(SP), $8
	JLT          biasm4
	VMOVUPD      (R11), Y8
	VMOVUPD      32(R11), Y9
	JMP          addb4

biasm4:
	VMOVUPD      (R11), Y8
	VMASKMOVPD   32(R11), Y14, Y9

addb4:
	VADDPD       Y8, Y0, Y0
	VADDPD       Y9, Y4, Y4
	VADDPD       Y8, Y1, Y1
	VADDPD       Y9, Y5, Y5
	VADDPD       Y8, Y2, Y2
	VADDPD       Y9, Y6, Y6
	VADDPD       Y8, Y3, Y3
	VADDPD       Y9, Y7, Y7

relu4:
	CMPB         relu+184(FP), $0
	JEQ          store4
	VMAXPD       Y15, Y0, Y0
	VMAXPD       Y15, Y1, Y1
	VMAXPD       Y15, Y2, Y2
	VMAXPD       Y15, Y3, Y3
	VMAXPD       Y15, Y4, Y4
	VMAXPD       Y15, Y5, Y5
	VMAXPD       Y15, Y6, Y6
	VMAXPD       Y15, Y7, Y7

store4:
	LEAQ         (DI)(BX*2), R11
	CMPQ         cols-8(SP), $8
	JLT          mask4
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y4, 32(DI)
	VMOVUPD      Y1, (DI)(BX*1)
	VMOVUPD      Y5, 32(DI)(BX*1)
	VMOVUPD      Y2, (R11)
	VMOVUPD      Y6, 32(R11)
	VMOVUPD      Y3, (R11)(BX*1)
	VMOVUPD      Y7, 32(R11)(BX*1)
	JMP          adv4

mask4:
	VMOVUPD      Y0, (DI)
	VMASKMOVPD   Y4, Y14, 32(DI)
	VMOVUPD      Y1, (DI)(BX*1)
	VMASKMOVPD   Y5, Y14, 32(DI)(BX*1)
	VMOVUPD      Y2, (R11)
	VMASKMOVPD   Y6, Y14, 32(R11)
	VMOVUPD      Y3, (R11)(BX*1)
	VMASKMOVPD   Y7, Y14, 32(R11)(BX*1)

adv4:
	ADDQ         wpb-16(SP), R8
	ADDQ         $64, DI
	SUBQ         $8, cols-8(SP)
	JMP          panel4

half4:
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	MOVQ         R13, SI
	MOVQ         R8, R14
	MOVQ         k+128(FP), R11
	TESTQ        R11, R11
	JZ           hsfx4

kh4:
	VMASKMOVPD   (R14), Y13, Y8
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y1, Y1
	VBROADCASTSD (SI)(AX*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (SI)(CX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          kh4

hsfx4:
	MOVQ         kc+136(FP), R11
	TESTQ        R11, R11
	JZ           hbias4
	MOVQ         c_base+96(FP), SI

ch4:
	VMASKMOVPD   (R14), Y13, Y8
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VADDPD       Y11, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y11, Y3, Y3
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          ch4

hbias4:
	CMPQ         b_len+80(FP), $0
	JEQ          hrelu4
	MOVQ         DI, R11
	SUBQ         DX, R11
	ADDQ         b_base+72(FP), R11
	VMASKMOVPD   (R11), Y13, Y8
	VADDPD       Y8, Y0, Y0
	VADDPD       Y8, Y1, Y1
	VADDPD       Y8, Y2, Y2
	VADDPD       Y8, Y3, Y3

hrelu4:
	CMPB         relu+184(FP), $0
	JEQ          hstore4
	VMAXPD       Y15, Y0, Y0
	VMAXPD       Y15, Y1, Y1
	VMAXPD       Y15, Y2, Y2
	VMAXPD       Y15, Y3, Y3

hstore4:
	LEAQ         (DI)(BX*2), R11
	VMASKMOVPD   Y0, Y13, (DI)
	VMASKMOVPD   Y1, Y13, (DI)(BX*1)
	VMASKMOVPD   Y2, Y13, (R11)
	VMASKMOVPD   Y3, Y13, (R11)(BX*1)
	JMP          next4

next4:
	LEAQ         (R13)(AX*4), R13
	LEAQ         (DX)(BX*4), DX
	SUBQ         $4, R10
	JMP          block4

row1:
	TESTQ        R10, R10
	JZ           done
	MOVQ         w_base+48(FP), R8
	MOVQ         DX, DI
	MOVQ         n+144(FP), R11
	MOVQ         R11, cols-8(SP)

panel1:
	CMPQ         cols-8(SP), $0
	JLE          next1
	CMPQ         cols-8(SP), $4
	JLE          half1
	VXORPD       Y0, Y0, Y0
	VXORPD       Y4, Y4, Y4
	MOVQ         R13, SI
	MOVQ         R8, R14
	MOVQ         k+128(FP), R11
	TESTQ        R11, R11
	JZ           sfx1
	CMPQ         cols-8(SP), $8
	JLT          k1m

k1:
	VMOVUPD      (R14), Y8
	VMOVUPD      32(R14), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y4, Y4
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k1
	JMP          sfx1

k1m:
	VMOVUPD      (R14), Y8
	VMASKMOVPD   32(R14), Y14, Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y4, Y4
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          k1m

sfx1:
	MOVQ         kc+136(FP), R11
	TESTQ        R11, R11
	JZ           bias1
	MOVQ         c_base+96(FP), SI
	CMPQ         cols-8(SP), $8
	JLT          c1m

c1:
	VMOVUPD      (R14), Y8
	VMOVUPD      32(R14), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y4, Y4
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c1
	JMP          bias1

c1m:
	VMOVUPD      (R14), Y8
	VMASKMOVPD   32(R14), Y14, Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y4, Y4
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          c1m

bias1:
	CMPQ         b_len+80(FP), $0
	JEQ          relu1
	MOVQ         DI, R11
	SUBQ         DX, R11
	ADDQ         b_base+72(FP), R11
	CMPQ         cols-8(SP), $8
	JLT          biasm1
	VMOVUPD      (R11), Y8
	VMOVUPD      32(R11), Y9
	JMP          addb1

biasm1:
	VMOVUPD      (R11), Y8
	VMASKMOVPD   32(R11), Y14, Y9

addb1:
	VADDPD       Y8, Y0, Y0
	VADDPD       Y9, Y4, Y4

relu1:
	CMPB         relu+184(FP), $0
	JEQ          store1
	VMAXPD       Y15, Y0, Y0
	VMAXPD       Y15, Y4, Y4

store1:
	CMPQ         cols-8(SP), $8
	JLT          mask1
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y4, 32(DI)
	JMP          adv1

mask1:
	VMOVUPD      Y0, (DI)
	VMASKMOVPD   Y4, Y14, 32(DI)

adv1:
	ADDQ         wpb-16(SP), R8
	ADDQ         $64, DI
	SUBQ         $8, cols-8(SP)
	JMP          panel1

half1:
	VXORPD       Y0, Y0, Y0
	MOVQ         R13, SI
	MOVQ         R8, R14
	MOVQ         k+128(FP), R11
	TESTQ        R11, R11
	JZ           hsfx1

kh1:
	VMASKMOVPD   (R14), Y13, Y8
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	ADDQ         R12, R14
	ADDQ         R9, SI
	DECQ         R11
	JNZ          kh1

hsfx1:
	MOVQ         kc+136(FP), R11
	TESTQ        R11, R11
	JZ           hbias1
	MOVQ         c_base+96(FP), SI

ch1:
	VMASKMOVPD   (R14), Y13, Y8
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	ADDQ         R12, R14
	ADDQ         $8, SI
	DECQ         R11
	JNZ          ch1

hbias1:
	CMPQ         b_len+80(FP), $0
	JEQ          hrelu1
	MOVQ         DI, R11
	SUBQ         DX, R11
	ADDQ         b_base+72(FP), R11
	VMASKMOVPD   (R11), Y13, Y8
	VADDPD       Y8, Y0, Y0

hrelu1:
	CMPB         relu+184(FP), $0
	JEQ          hstore1
	VMAXPD       Y15, Y0, Y0

hstore1:
	VMASKMOVPD   Y0, Y13, (DI)
	JMP          next1

next1:
	ADDQ         AX, R13
	ADDQ         BX, DX
	DECQ         R10
	JMP          row1

done:
	VZEROUPPER
	RET
