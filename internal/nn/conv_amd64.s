#include "textflag.h"

// func convRunAVX(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int)
//
// Output pixels go four at a time while four are left: Y0-Y7 hold pixel p's
// 16 lanes in Y(2p) (lanes 0-7) and Y(2p+1) (lanes 8-15). Each tap loads its
// 16 packed weights once (Y8, Y9) for all four pixels, broadcasts each
// pixel's input sample (VBROADCASTSS), multiplies it into the weights
// (VMULPS) and adds the products to the lanes (VADDPS), never fused, so
// every lane's sum is convTapsGo's bit for bit. The last one to three
// pixels go two at a time through Y0-Y3; a lone last pixel reads its own
// samples twice and stores once. Taps run channel by channel, row by row,
// column by column, as in convTapsGo; the strides arrive in float32
// elements and are scaled to bytes.
//
// Registers: DI the next pixel's 16 results, R13 its first sample, R12 and
// R11 one and three pixel strides, R10 the tap stride, R8/R9/AX the
// channel/row/tap counters, BX/CX the first weight and sample of the
// current row, SI/DX those of the current tap. The frame holds the channel
// count (zero when there are no taps), the pixels left and the current
// channel's first weight and sample.
TEXT ·convRunAVX(SB), NOSPLIT, $32-160
	MOVQ out_base+0(FP), DI
	MOVQ x_base+56(FP), R13
	MOVQ px+88(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R11
	MOVQ xx+136(FP), R10
	SHLQ $2, R10
	MOVQ np+80(FP), AX
	MOVQ AX, left-16(SP)
	MOVQ nc+96(FP), AX
	CMPQ ny+104(FP), $0
	JLE  notaps
	CMPQ nx+112(FP), $0
	JG   counted

notaps:
	XORQ AX, AX

counted:
	MOVQ AX, chans-8(SP)

quad:
	CMPQ left-16(SP), $4
	JLT  pair
	MOVQ    b+24(FP), AX
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y1, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y1, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y1, Y7
	MOVQ    chans-8(SP), R8
	TESTQ   R8, R8
	JLE     qstore
	MOVQ    w_base+32(FP), BX
	MOVQ    R13, CX

qchannel:
	MOVQ BX, wch-24(SP)
	MOVQ CX, xch-32(SP)
	MOVQ ny+104(FP), R9

qrow:
	MOVQ BX, SI
	MOVQ CX, DX
	MOVQ nx+112(FP), AX

qtap:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (DX), Y10
	VBROADCASTSS (DX)(R12*1), Y11
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VADDPS       Y12, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VMULPS       Y11, Y8, Y12
	VMULPS       Y11, Y9, Y13
	VADDPS       Y12, Y2, Y2
	VADDPS       Y13, Y3, Y3
	VBROADCASTSS (DX)(R12*2), Y10
	VBROADCASTSS (DX)(R11*1), Y11
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VADDPS       Y12, Y4, Y4
	VADDPS       Y13, Y5, Y5
	VMULPS       Y11, Y8, Y12
	VMULPS       Y11, Y9, Y13
	VADDPS       Y12, Y6, Y6
	VADDPS       Y13, Y7, Y7
	ADDQ         $64, SI
	ADDQ         R10, DX
	DECQ         AX
	JNZ          qtap

	MOVQ wy+152(FP), AX
	LEAQ (BX)(AX*4), BX
	MOVQ xy+128(FP), AX
	LEAQ (CX)(AX*4), CX
	DECQ R9
	JNZ  qrow

	MOVQ wch-24(SP), BX
	MOVQ wc+144(FP), AX
	LEAQ (BX)(AX*4), BX
	MOVQ xch-32(SP), CX
	MOVQ xc+120(FP), AX
	LEAQ (CX)(AX*4), CX
	DECQ R8
	JNZ  qchannel

qstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (R13)(R12*4), R13
	SUBQ    $4, left-16(SP)
	JMP     quad

pair:
	// R11 becomes the second pixel's offset: one stride, or zero for a
	// lone last pixel, which then reads its own samples twice.
	CMPQ left-16(SP), $0
	JLE  done
	MOVQ R12, R11
	CMPQ left-16(SP), $2
	JGE  paired
	XORQ R11, R11

paired:
	MOVQ    b+24(FP), AX
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y1, Y3
	MOVQ    chans-8(SP), R8
	TESTQ   R8, R8
	JLE     pstore
	MOVQ    w_base+32(FP), BX
	MOVQ    R13, CX

pchannel:
	MOVQ BX, wch-24(SP)
	MOVQ CX, xch-32(SP)
	MOVQ ny+104(FP), R9

prow:
	MOVQ BX, SI
	MOVQ CX, DX
	MOVQ nx+112(FP), AX

ptap:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (DX), Y10
	VBROADCASTSS (DX)(R11*1), Y11
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VADDPS       Y12, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VMULPS       Y11, Y8, Y12
	VMULPS       Y11, Y9, Y13
	VADDPS       Y12, Y2, Y2
	VADDPS       Y13, Y3, Y3
	ADDQ         $64, SI
	ADDQ         R10, DX
	DECQ         AX
	JNZ          ptap

	MOVQ wy+152(FP), AX
	LEAQ (BX)(AX*4), BX
	MOVQ xy+128(FP), AX
	LEAQ (CX)(AX*4), CX
	DECQ R9
	JNZ  prow

	MOVQ wch-24(SP), BX
	MOVQ wc+144(FP), AX
	LEAQ (BX)(AX*4), BX
	MOVQ xch-32(SP), CX
	MOVQ xc+120(FP), AX
	LEAQ (CX)(AX*4), CX
	DECQ R8
	JNZ  pchannel

pstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	CMPQ    left-16(SP), $2
	JLT     done
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R13)(R12*2), R13
	SUBQ    $2, left-16(SP)
	JMP     pair

done:
	VZEROUPPER
	RET

// func bnReLUAVX(res []float32, ep *[epilogueLen]float32)
//
// Y8-Y15 hold the epilogue block: the mean, γ, inv and β of lanes 0-7 and
// 8-15. Each pixel's 16 results (Y0, Y1) become (v - mean) * γ * inv + β,
// each operation rounded on its own as BatchNorm2D.Forward rounds it, and
// then VMAXPS with Y7 = +0 as the second source: max(v, +0) keeps v only
// when v > +0, so NaN and -0 become +0 as in ReLU.Forward.
TEXT ·bnReLUAVX(SB), NOSPLIT, $0-32
	MOVQ    res_base+0(FP), DI
	MOVQ    res_len+8(FP), CX
	SHRQ    $4, CX
	JZ      epdone
	MOVQ    ep+24(FP), AX
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VMOVUPS 64(AX), Y10
	VMOVUPS 96(AX), Y11
	VMOVUPS 128(AX), Y12
	VMOVUPS 160(AX), Y13
	VMOVUPS 192(AX), Y14
	VMOVUPS 224(AX), Y15
	VXORPS  Y7, Y7, Y7

eppixel:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VSUBPS  Y8, Y0, Y0
	VSUBPS  Y9, Y1, Y1
	VMULPS  Y10, Y0, Y0
	VMULPS  Y11, Y1, Y1
	VMULPS  Y12, Y0, Y0
	VMULPS  Y13, Y1, Y1
	VADDPS  Y14, Y0, Y0
	VADDPS  Y15, Y1, Y1
	VMAXPS  Y7, Y0, Y0
	VMAXPS  Y7, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	DECQ    CX
	JNZ     eppixel
	VZEROUPPER

epdone:
	RET
