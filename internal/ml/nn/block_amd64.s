#include "textflag.h"

// func blockLayer(dst, x, w, bias []float64, out int, relu bool)
//
// One layer over a 4-row block stored feature-major: x[i*4+r] is input
// i of row r, and dst[j*4+r] receives output j of row r. Each YMM lane
// holds one row, and eight accumulators hold outputs j..j+7, so every
// sum is formed as forward forms it: the bias first, then z += x*w over
// the inputs in ascending order, with a separate VMULPD and VADDPD (no
// FMA) and the same operand order as the compiled scalar loop (x before
// w, z before the product). ReLU is VMAXPD with +0 as the second
// source, which yields +0 for NaN and ±0 as forward's z > 0 test does.
//
// The caller slices every argument to the exact span read or written:
// in = len(x)/4 inputs, len(dst)/32 groups of eight outputs, bias[j]
// for those outputs, and w[i*out+j] for i < in, the weight rows being
// out float64s apart.
TEXT ·blockLayer(SB), NOSPLIT, $0-105
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), R9
	SHRQ    $5, R9
	MOVQ    x_base+24(FP), SI
	MOVQ    x_len+32(FP), CX
	SHRQ    $2, CX
	MOVQ    w_base+48(FP), DX
	MOVQ    bias_base+72(FP), BX
	MOVQ    out+96(FP), R8
	SHLQ    $3, R8
	MOVBLZX relu+104(FP), AX
	VXORPD  Y15, Y15, Y15

group:
	TESTQ        R9, R9
	JZ           done
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	VBROADCASTSD 32(BX), Y4
	VBROADCASTSD 40(BX), Y5
	VBROADCASTSD 48(BX), Y6
	VBROADCASTSD 56(BX), Y7
	MOVQ         SI, R10
	MOVQ         DX, R11
	MOVQ         CX, R12
	TESTQ        R12, R12
	JZ           activate

input:
	VMOVUPD      0(R10), Y8
	VBROADCASTSD 0(R11), Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD 8(R11), Y10
	VMULPD       Y10, Y8, Y10
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD 16(R11), Y11
	VMULPD       Y11, Y8, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD 24(R11), Y12
	VMULPD       Y12, Y8, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 32(R11), Y13
	VMULPD       Y13, Y8, Y13
	VADDPD       Y13, Y4, Y4
	VBROADCASTSD 40(R11), Y14
	VMULPD       Y14, Y8, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD 48(R11), Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y6, Y6
	VBROADCASTSD 56(R11), Y10
	VMULPD       Y10, Y8, Y10
	VADDPD       Y10, Y7, Y7
	ADDQ         $32, R10
	ADDQ         R8, R11
	DECQ         R12
	JNZ          input

activate:
	TESTQ  AX, AX
	JZ     store
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y3, Y3
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y5, Y5
	VMAXPD Y15, Y6, Y6
	VMAXPD Y15, Y7, Y7

store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $64, BX
	ADDQ    $64, DX
	DECQ    R9
	JMP     group

done:
	VZEROUPPER
	RET

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

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
