#include "textflag.h"

// The AVX-512 and AVX2 forms of the column-moments kernel (see the top
// of moments.go). One lane per column: each step adds one row of a
// group of columns (eight per 512-bit register, four per 256-bit one)
// to the group's accumulator, so every lane sums its column in
// ascending row order from +0 exactly like momentsGeneric. The mean is
// the sum times inv; the deviation pass subtracts that mean from each
// row's value, squares the difference (VMULPD, never fused with the
// add) and adds it, then scales by inv and takes the square root
// (VSQRTPD, correctly rounded like math.Sqrt). Each add has the
// accumulator as its first source and each subtraction the row value,
// as the compiled Go loop has them. The last group of columns loads
// and stores only its live lanes, through an opmask (AVX-512) or a
// VMASKMOVPD lane mask (AVX2), so no access goes past an operand; a
// masked-off lane is neither read, which would fault past a guard
// page, nor written.
//
// Every form takes a *Moments (or a *[4]Moments), whose slices sit at
// fixed offsets: Mean's base at 0, Std's base at 24 and length at 32,
// X's base at 48; one Moments is 72 bytes. A zero Std length skips the
// deviation pass (every job of a four-matrix call agrees on it).

// Lane masks for the AVX2 forms: the 32 bytes from lanemask<>+32−8l
// hold l all-ones lanes and then zeros, for l = 1…4 live columns.
DATA lanemask<>+0x00(SB)/8, $-1
DATA lanemask<>+0x08(SB)/8, $-1
DATA lanemask<>+0x10(SB)/8, $-1
DATA lanemask<>+0x18(SB)/8, $-1
DATA lanemask<>+0x20(SB)/8, $0
DATA lanemask<>+0x28(SB)/8, $0
DATA lanemask<>+0x30(SB)/8, $0
DATA lanemask<>+0x38(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// func momentsAVX512(m *Moments, rows, cols int, inv float64)
//
// Registers: AX the job, CX rows, DX columns left, BX row stride
// (bytes), SI the group's first x value, DI mean cursor, R8 std cursor,
// R9 std length, R10 x cursor, R11 row counter and scratch; K1 the
// group's lane mask, K2 the tail mask, K3 all eight lanes; Z0 the sum
// and then the mean, Z1 a row, Z2 the squared-deviation sum, Z14 inv.
TEXT ·momentsAVX512(SB), NOSPLIT, $0-32
	MOVQ         m+0(FP), AX
	MOVQ         rows+8(FP), CX
	MOVQ         cols+16(FP), DX
	VBROADCASTSD inv+24(FP), Z14
	MOVQ         DX, BX
	SHLQ         $3, BX
	MOVQ         DX, R11
	ANDQ         $7, R11
	XORQ         R8, R8
	BTSQ         R11, R8
	DECQ         R8
	KMOVW        R8, K2
	MOVQ         $0xff, R8
	KMOVW        R8, K3
	MOVQ         48(AX), SI
	MOVQ         0(AX), DI
	MOVQ         24(AX), R8
	MOVQ         32(AX), R9

group1:
	CMPQ  DX, $0
	JLE   done1
	KMOVW K3, K1
	CMPQ  DX, $8
	JGE   mean1
	KMOVW K2, K1

mean1:
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R10
	MOVQ   CX, R11

msum1:
	VMOVUPD.Z (R10), K1, Z1
	VADDPD    Z1, Z0, Z0
	ADDQ      BX, R10
	DECQ      R11
	JNZ       msum1
	VMULPD    Z14, Z0, Z0
	VMOVUPD   Z0, K1, (DI)
	TESTQ     R9, R9
	JZ        next1
	VPXORQ    Z2, Z2, Z2
	MOVQ      SI, R10
	MOVQ      CX, R11

ssum1:
	VMOVUPD.Z (R10), K1, Z1
	VSUBPD    Z0, Z1, Z1
	VMULPD    Z1, Z1, Z1
	VADDPD    Z1, Z2, Z2
	ADDQ      BX, R10
	DECQ      R11
	JNZ       ssum1
	VMULPD    Z14, Z2, Z2
	VSQRTPD   Z2, Z2
	VMOVUPD   Z2, K1, (R8)

next1:
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $8, DX
	JMP  group1

done1:
	VZEROUPPER
	RET

// func moments4AVX512(m *[4]Moments, rows, cols int, inv float64)
//
// momentsAVX512 over four matrices of one shape at once: one
// accumulator per matrix, so four independent add chains run side by
// side. Registers: AX the jobs, CX rows, DX columns left, BX row stride
// (bytes), R12 the group's byte offset within a row, R13 the row's byte
// offset, SI, DI, R8 and R10 the four matrices' group bases, R9 the std
// length, R11 row counter and scratch; K1–K3 as in momentsAVX512; Z0–Z3
// the sums and then the means, Z4–Z7 rows, Z8–Z11 the squared-deviation
// sums, Z14 inv.
TEXT ·moments4AVX512(SB), NOSPLIT, $0-32
	MOVQ         m+0(FP), AX
	MOVQ         rows+8(FP), CX
	MOVQ         cols+16(FP), DX
	VBROADCASTSD inv+24(FP), Z14
	MOVQ         DX, BX
	SHLQ         $3, BX
	MOVQ         DX, R11
	ANDQ         $7, R11
	XORQ         R8, R8
	BTSQ         R11, R8
	DECQ         R8
	KMOVW        R8, K2
	MOVQ         $0xff, R8
	KMOVW        R8, K3
	MOVQ         32(AX), R9
	XORQ         R12, R12

group4:
	CMPQ  DX, $0
	JLE   done4
	KMOVW K3, K1
	CMPQ  DX, $8
	JGE   mean4
	KMOVW K2, K1

mean4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   48(AX), SI
	ADDQ   R12, SI
	MOVQ   120(AX), DI
	ADDQ   R12, DI
	MOVQ   192(AX), R8
	ADDQ   R12, R8
	MOVQ   264(AX), R10
	ADDQ   R12, R10
	XORQ   R13, R13
	MOVQ   CX, R11

msum4:
	VMOVUPD.Z (SI)(R13*1), K1, Z4
	VADDPD    Z4, Z0, Z0
	VMOVUPD.Z (DI)(R13*1), K1, Z5
	VADDPD    Z5, Z1, Z1
	VMOVUPD.Z (R8)(R13*1), K1, Z6
	VADDPD    Z6, Z2, Z2
	VMOVUPD.Z (R10)(R13*1), K1, Z7
	VADDPD    Z7, Z3, Z3
	ADDQ      BX, R13
	DECQ      R11
	JNZ       msum4
	VMULPD    Z14, Z0, Z0
	VMULPD    Z14, Z1, Z1
	VMULPD    Z14, Z2, Z2
	VMULPD    Z14, Z3, Z3
	MOVQ      0(AX), R11
	VMOVUPD   Z0, K1, (R11)(R12*1)
	MOVQ      72(AX), R11
	VMOVUPD   Z1, K1, (R11)(R12*1)
	MOVQ      144(AX), R11
	VMOVUPD   Z2, K1, (R11)(R12*1)
	MOVQ      216(AX), R11
	VMOVUPD   Z3, K1, (R11)(R12*1)
	TESTQ     R9, R9
	JZ        next4
	VPXORQ    Z8, Z8, Z8
	VPXORQ    Z9, Z9, Z9
	VPXORQ    Z10, Z10, Z10
	VPXORQ    Z11, Z11, Z11
	XORQ      R13, R13
	MOVQ      CX, R11

ssum4:
	VMOVUPD.Z (SI)(R13*1), K1, Z4
	VSUBPD    Z0, Z4, Z4
	VMULPD    Z4, Z4, Z4
	VADDPD    Z4, Z8, Z8
	VMOVUPD.Z (DI)(R13*1), K1, Z5
	VSUBPD    Z1, Z5, Z5
	VMULPD    Z5, Z5, Z5
	VADDPD    Z5, Z9, Z9
	VMOVUPD.Z (R8)(R13*1), K1, Z6
	VSUBPD    Z2, Z6, Z6
	VMULPD    Z6, Z6, Z6
	VADDPD    Z6, Z10, Z10
	VMOVUPD.Z (R10)(R13*1), K1, Z7
	VSUBPD    Z3, Z7, Z7
	VMULPD    Z7, Z7, Z7
	VADDPD    Z7, Z11, Z11
	ADDQ      BX, R13
	DECQ      R11
	JNZ       ssum4
	VMULPD    Z14, Z8, Z8
	VMULPD    Z14, Z9, Z9
	VMULPD    Z14, Z10, Z10
	VMULPD    Z14, Z11, Z11
	VSQRTPD   Z8, Z8
	VSQRTPD   Z9, Z9
	VSQRTPD   Z10, Z10
	VSQRTPD   Z11, Z11
	MOVQ      24(AX), R11
	VMOVUPD   Z8, K1, (R11)(R12*1)
	MOVQ      96(AX), R11
	VMOVUPD   Z9, K1, (R11)(R12*1)
	MOVQ      168(AX), R11
	VMOVUPD   Z10, K1, (R11)(R12*1)
	MOVQ      240(AX), R11
	VMOVUPD   Z11, K1, (R11)(R12*1)

next4:
	ADDQ $64, R12
	SUBQ $8, DX
	JMP  group4

done4:
	VZEROUPPER
	RET

// func momentsAVX2(m *Moments, rows, cols int, inv float64)
//
// momentsAVX512 on 256-bit registers: groups of four columns, every
// load and store through the lane mask Y13 (all four lanes but in the
// last group). Registers as in momentsAVX512, with R12 the lane-mask
// table's end; Y0 the sum and then the mean, Y1 a row, Y2 the
// squared-deviation sum, Y14 inv.
TEXT ·momentsAVX2(SB), NOSPLIT, $0-32
	MOVQ         m+0(FP), AX
	MOVQ         rows+8(FP), CX
	MOVQ         cols+16(FP), DX
	VBROADCASTSD inv+24(FP), Y14
	MOVQ         DX, BX
	SHLQ         $3, BX
	MOVQ         48(AX), SI
	MOVQ         0(AX), DI
	MOVQ         24(AX), R8
	MOVQ         32(AX), R9
	LEAQ         lanemask<>+32(SB), R12

group1x:
	CMPQ    DX, $0
	JLE     done1x
	MOVQ    $4, R11
	CMPQ    DX, R11
	CMOVQLT DX, R11
	NEGQ    R11
	VMOVUPD (R12)(R11*8), Y13
	VXORPD  Y0, Y0, Y0
	MOVQ    SI, R10
	MOVQ    CX, R11

msum1x:
	VMASKMOVPD (R10), Y13, Y1
	VADDPD     Y1, Y0, Y0
	ADDQ       BX, R10
	DECQ       R11
	JNZ        msum1x
	VMULPD     Y14, Y0, Y0
	VMASKMOVPD Y0, Y13, (DI)
	TESTQ      R9, R9
	JZ         next1x
	VXORPD     Y2, Y2, Y2
	MOVQ       SI, R10
	MOVQ       CX, R11

ssum1x:
	VMASKMOVPD (R10), Y13, Y1
	VSUBPD     Y0, Y1, Y1
	VMULPD     Y1, Y1, Y1
	VADDPD     Y1, Y2, Y2
	ADDQ       BX, R10
	DECQ       R11
	JNZ        ssum1x
	VMULPD     Y14, Y2, Y2
	VSQRTPD    Y2, Y2
	VMASKMOVPD Y2, Y13, (R8)

next1x:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, DX
	JMP  group1x

done1x:
	VZEROUPPER
	RET

// func moments4AVX2(m *[4]Moments, rows, cols int, inv float64)
//
// moments4AVX512 on 256-bit registers, with momentsAVX2's groups of
// four columns and lane mask Y13. Registers as in moments4AVX512, with
// R14 the lane-mask table's end; Y0–Y3 the sums and then the means,
// Y4–Y7 rows, Y8–Y11 the squared-deviation sums, Y14 inv.
TEXT ·moments4AVX2(SB), NOSPLIT, $0-32
	MOVQ         m+0(FP), AX
	MOVQ         rows+8(FP), CX
	MOVQ         cols+16(FP), DX
	VBROADCASTSD inv+24(FP), Y14
	MOVQ         DX, BX
	SHLQ         $3, BX
	MOVQ         32(AX), R9
	XORQ         R12, R12
	LEAQ         lanemask<>+32(SB), R14

group4x:
	CMPQ    DX, $0
	JLE     done4x
	MOVQ    $4, R11
	CMPQ    DX, R11
	CMOVQLT DX, R11
	NEGQ    R11
	VMOVUPD (R14)(R11*8), Y13
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	MOVQ    48(AX), SI
	ADDQ    R12, SI
	MOVQ    120(AX), DI
	ADDQ    R12, DI
	MOVQ    192(AX), R8
	ADDQ    R12, R8
	MOVQ    264(AX), R10
	ADDQ    R12, R10
	XORQ    R13, R13
	MOVQ    CX, R11

msum4x:
	VMASKMOVPD (SI)(R13*1), Y13, Y4
	VADDPD     Y4, Y0, Y0
	VMASKMOVPD (DI)(R13*1), Y13, Y5
	VADDPD     Y5, Y1, Y1
	VMASKMOVPD (R8)(R13*1), Y13, Y6
	VADDPD     Y6, Y2, Y2
	VMASKMOVPD (R10)(R13*1), Y13, Y7
	VADDPD     Y7, Y3, Y3
	ADDQ       BX, R13
	DECQ       R11
	JNZ        msum4x
	VMULPD     Y14, Y0, Y0
	VMULPD     Y14, Y1, Y1
	VMULPD     Y14, Y2, Y2
	VMULPD     Y14, Y3, Y3
	MOVQ       0(AX), R11
	VMASKMOVPD Y0, Y13, (R11)(R12*1)
	MOVQ       72(AX), R11
	VMASKMOVPD Y1, Y13, (R11)(R12*1)
	MOVQ       144(AX), R11
	VMASKMOVPD Y2, Y13, (R11)(R12*1)
	MOVQ       216(AX), R11
	VMASKMOVPD Y3, Y13, (R11)(R12*1)
	TESTQ      R9, R9
	JZ         next4x
	VXORPD     Y8, Y8, Y8
	VXORPD     Y9, Y9, Y9
	VXORPD     Y10, Y10, Y10
	VXORPD     Y11, Y11, Y11
	XORQ       R13, R13
	MOVQ       CX, R11

ssum4x:
	VMASKMOVPD (SI)(R13*1), Y13, Y4
	VSUBPD     Y0, Y4, Y4
	VMULPD     Y4, Y4, Y4
	VADDPD     Y4, Y8, Y8
	VMASKMOVPD (DI)(R13*1), Y13, Y5
	VSUBPD     Y1, Y5, Y5
	VMULPD     Y5, Y5, Y5
	VADDPD     Y5, Y9, Y9
	VMASKMOVPD (R8)(R13*1), Y13, Y6
	VSUBPD     Y2, Y6, Y6
	VMULPD     Y6, Y6, Y6
	VADDPD     Y6, Y10, Y10
	VMASKMOVPD (R10)(R13*1), Y13, Y7
	VSUBPD     Y3, Y7, Y7
	VMULPD     Y7, Y7, Y7
	VADDPD     Y7, Y11, Y11
	ADDQ       BX, R13
	DECQ       R11
	JNZ        ssum4x
	VMULPD     Y14, Y8, Y8
	VMULPD     Y14, Y9, Y9
	VMULPD     Y14, Y10, Y10
	VMULPD     Y14, Y11, Y11
	VSQRTPD    Y8, Y8
	VSQRTPD    Y9, Y9
	VSQRTPD    Y10, Y10
	VSQRTPD    Y11, Y11
	MOVQ       24(AX), R11
	VMASKMOVPD Y8, Y13, (R11)(R12*1)
	MOVQ       96(AX), R11
	VMASKMOVPD Y9, Y13, (R11)(R12*1)
	MOVQ       168(AX), R11
	VMASKMOVPD Y10, Y13, (R11)(R12*1)
	MOVQ       240(AX), R11
	VMASKMOVPD Y11, Y13, (R11)(R12*1)

next4x:
	ADDQ $32, R12
	SUBQ $4, DX
	JMP  group4x

done4x:
	VZEROUPPER
	RET
