#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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

// func mulPairAVX2(tabs []nibbles, in [][]byte, d0, d1 []byte)
//
// Per 32-byte block: two accumulators (Y0 for row r, Y1 for row r+1);
// for each column, split the input into low (Y2) and high (Y3) nibbles
// and XOR in the four VPSHUFB lookups of that column's nibble tables.
// A table is 16 bytes, broadcast to both 128-bit lanes, since VPSHUFB
// looks up within a lane.
TEXT ·mulPairAVX2(SB), NOSPLIT, $0-96
	MOVQ tabs_base+0(FP), AX
	MOVQ tabs_len+8(FP), CX
	MOVQ in_base+24(FP), BX
	MOVQ d0_base+48(FP), DI
	MOVQ d0_len+56(FP), DX
	MOVQ d1_base+72(FP), R8
	MOVQ $0x0f0f0f0f0f0f0f0f, R10
	MOVQ R10, X6
	VPBROADCASTQ X6, Y6
	XORQ R9, R9

block:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  AX, R11
	MOVQ  BX, R12
	MOVQ  CX, R13

column:
	MOVQ           (R12), SI
	VMOVDQU        (SI)(R9*1), Y2
	VPSRLQ         $4, Y2, Y3
	VPAND          Y6, Y2, Y2
	VPAND          Y6, Y3, Y3
	VBROADCASTI128 (R11), Y4
	VBROADCASTI128 16(R11), Y5
	VPSHUFB        Y2, Y4, Y4
	VPSHUFB        Y3, Y5, Y5
	VPXOR          Y4, Y0, Y0
	VPXOR          Y5, Y0, Y0
	VBROADCASTI128 32(R11), Y4
	VBROADCASTI128 48(R11), Y5
	VPSHUFB        Y2, Y4, Y4
	VPSHUFB        Y3, Y5, Y5
	VPXOR          Y4, Y1, Y1
	VPXOR          Y5, Y1, Y1
	ADDQ           $64, R11
	ADDQ           $24, R12
	DECQ           R13
	JNZ            column

	VMOVDQU Y1, (R8)(R9*1)
	VMOVDQU Y0, (DI)(R9*1)
	ADDQ    $32, R9
	CMPQ    R9, DX
	JB      block

	VZEROUPPER
	RET
