#include "textflag.h"

// convRunAVX's taps of four and two pixels: the weights go to Y8 (lanes
// 0-7) and Y9 (lanes 8-15), pixel p's lanes are Y(2p) and Y(2p+1), and
// each pixel's sample is broadcast (Y10, Y11), multiplied into the
// weights (Y12, Y13) and added to its lanes. The second of two pixels
// reads at R11.
#define YTAP4 \
	VMOVUPS      (SI), Y8; \
	VMOVUPS      32(SI), Y9; \
	VBROADCASTSS (DX), Y10; \
	VBROADCASTSS (DX)(R12*1), Y11; \
	VMULPS       Y10, Y8, Y12; \
	VMULPS       Y10, Y9, Y13; \
	VADDPS       Y12, Y0, Y0; \
	VADDPS       Y13, Y1, Y1; \
	VMULPS       Y11, Y8, Y12; \
	VMULPS       Y11, Y9, Y13; \
	VADDPS       Y12, Y2, Y2; \
	VADDPS       Y13, Y3, Y3; \
	VBROADCASTSS (DX)(R12*2), Y10; \
	VBROADCASTSS (DX)(R11*1), Y11; \
	VMULPS       Y10, Y8, Y12; \
	VMULPS       Y10, Y9, Y13; \
	VADDPS       Y12, Y4, Y4; \
	VADDPS       Y13, Y5, Y5; \
	VMULPS       Y11, Y8, Y12; \
	VMULPS       Y11, Y9, Y13; \
	VADDPS       Y12, Y6, Y6; \
	VADDPS       Y13, Y7, Y7

#define YTAP2 \
	VMOVUPS      (SI), Y8; \
	VMOVUPS      32(SI), Y9; \
	VBROADCASTSS (DX), Y10; \
	VBROADCASTSS (DX)(R11*1), Y11; \
	VMULPS       Y10, Y8, Y12; \
	VMULPS       Y10, Y9, Y13; \
	VADDPS       Y12, Y0, Y0; \
	VADDPS       Y13, Y1, Y1; \
	VMULPS       Y11, Y8, Y12; \
	VMULPS       Y11, Y9, Y13; \
	VADDPS       Y12, Y2, Y2; \
	VADDPS       Y13, Y3, Y3

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
// R11 one and three pixel strides, R10 the tap stride, and in CONVTAPS
// R8/R9/AX the channel/row/tap counters, BX/CX the first weight and sample
// of the current row, SI/DX those of the current tap. The frame holds the
// channel count (zero when there are no taps), the pixels left and the
// current channel's first weight and sample.
TEXT ·convRunAVX(SB), NOSPLIT, $32-160

// CONVTAPS runs every tap of one block of pixels into its accumulators,
// in convTapsGo's order, for both kernels: for each of the chans channels
// (frame), ny rows and nx columns it runs TAP, which loads the tap's 16
// packed weights at SI once, multiplies them by each pixel's sample at DX
// plus the pixel's offset and adds the products to the pixel's lanes. SI
// and DX then step one tap, BX/CX one row; the frame keeps the channel's
// first weight and sample. With no taps it jumps straight to store. It is
// defined inside convRunAVX so that vet checks its argument offsets;
// convRunAVX512 has the same arguments and frame.
#define CONVTAPS(channel, row, tap, store, TAP) \
	MOVQ  chans-8(SP), R8; \
	TESTQ R8, R8; \
	JLE   store; \
	MOVQ  w_base+32(FP), BX; \
	MOVQ  R13, CX; \
channel: \
	MOVQ BX, wch-24(SP); \
	MOVQ CX, xch-32(SP); \
	MOVQ ny+104(FP), R9; \
row: \
	MOVQ BX, SI; \
	MOVQ CX, DX; \
	MOVQ nx+112(FP), AX; \
tap: \
	TAP; \
	ADDQ    $64, SI; \
	ADDQ    R10, DX; \
	DECQ    AX; \
	JNZ     tap; \
	MOVQ    wy+152(FP), AX; \
	LEAQ    (BX)(AX*4), BX; \
	MOVQ    xy+128(FP), AX; \
	LEAQ    (CX)(AX*4), CX; \
	DECQ    R9; \
	JNZ     row; \
	MOVQ    wch-24(SP), BX; \
	MOVQ    wc+144(FP), AX; \
	LEAQ    (BX)(AX*4), BX; \
	MOVQ    xch-32(SP), CX; \
	MOVQ    xc+120(FP), AX; \
	LEAQ    (CX)(AX*4), CX; \
	DECQ    R8; \
	JNZ     channel

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
	CMPQ    left-16(SP), $4
	JLT     pair
	MOVQ    b+24(FP), AX
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y1, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y1, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y1, Y7
	CONVTAPS(qchannel, qrow, qtap, qstore, YTAP4)

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
	CONVTAPS(pchannel, prow, ptap, pstore, YTAP2)

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

// convRunAVX512's taps of eight, four, two and one pixels: the weights go
// to Z8, pixel p's product to Z(16+p), and it is added to its lanes in
// Z(p). The weights are the first source of each VMULPS, as in
// convRunAVX, and the accumulator the first source of each VADDPS. R14
// points at pixel four's sample.
#define ZTAP8 \
	VMOVUPS     (SI), Z8; \
	LEAQ        (DX)(R12*4), R14; \
	VMULPS.BCST (DX), Z8, Z16; \
	VMULPS.BCST (DX)(R12*1), Z8, Z17; \
	VMULPS.BCST (DX)(R12*2), Z8, Z18; \
	VMULPS.BCST (DX)(R11*1), Z8, Z19; \
	VMULPS.BCST (R14), Z8, Z20; \
	VMULPS.BCST (R14)(R12*1), Z8, Z21; \
	VMULPS.BCST (R14)(R12*2), Z8, Z22; \
	VMULPS.BCST (R14)(R11*1), Z8, Z23; \
	VADDPS      Z16, Z0, Z0; \
	VADDPS      Z17, Z1, Z1; \
	VADDPS      Z18, Z2, Z2; \
	VADDPS      Z19, Z3, Z3; \
	VADDPS      Z20, Z4, Z4; \
	VADDPS      Z21, Z5, Z5; \
	VADDPS      Z22, Z6, Z6; \
	VADDPS      Z23, Z7, Z7

#define ZTAP4 \
	VMOVUPS     (SI), Z8; \
	VMULPS.BCST (DX), Z8, Z16; \
	VMULPS.BCST (DX)(R12*1), Z8, Z17; \
	VMULPS.BCST (DX)(R12*2), Z8, Z18; \
	VMULPS.BCST (DX)(R11*1), Z8, Z19; \
	VADDPS      Z16, Z0, Z0; \
	VADDPS      Z17, Z1, Z1; \
	VADDPS      Z18, Z2, Z2; \
	VADDPS      Z19, Z3, Z3

#define ZTAP2 \
	VMOVUPS     (SI), Z8; \
	VMULPS.BCST (DX), Z8, Z16; \
	VMULPS.BCST (DX)(R12*1), Z8, Z17; \
	VADDPS      Z16, Z0, Z0; \
	VADDPS      Z17, Z1, Z1

#define ZTAP1 \
	VMOVUPS     (SI), Z8; \
	VMULPS.BCST (DX), Z8, Z16; \
	VADDPS      Z16, Z0, Z0

// func convRunAVX512(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int)
//
// convRunAVX at full vector width: one ZMM register holds a pixel's 16
// lanes, and each tap's weights are loaded once for eight pixels while
// eight are left. The last zero to seven pixels go through one block each
// of four, two and one. Every lane adds a rounded VMULPS product with a
// VADDPS, tap by tap in convTapsGo's order, never fused, so its sum is
// convTapsGo's bit for bit.
//
// Registers: DI the next pixel's 16 results, R13 its first sample, R12 and
// R11 one and three pixel strides, R10 the tap stride, Z9 the biases, and
// in CONVTAPS (defined in convRunAVX) R8/R9/AX the channel/row/tap
// counters. The frame is convRunAVX's.
TEXT ·convRunAVX512(SB), NOSPLIT, $32-160
	MOVQ    out_base+0(FP), DI
	MOVQ    x_base+56(FP), R13
	MOVQ    px+88(FP), R12
	SHLQ    $2, R12
	LEAQ    (R12)(R12*2), R11
	MOVQ    xx+136(FP), R10
	SHLQ    $2, R10
	MOVQ    b+24(FP), AX
	VMOVUPS (AX), Z9
	MOVQ    np+80(FP), AX
	MOVQ    AX, left-16(SP)
	MOVQ    nc+96(FP), AX
	CMPQ    ny+104(FP), $0
	JLE     znotaps
	CMPQ    nx+112(FP), $0
	JG      zcounted

znotaps:
	XORQ AX, AX

zcounted:
	MOVQ AX, chans-8(SP)

oct:
	CMPQ    left-16(SP), $8
	JLT     quad
	VMOVUPS Z9, Z0
	VMOVUPS Z9, Z1
	VMOVUPS Z9, Z2
	VMOVUPS Z9, Z3
	VMOVUPS Z9, Z4
	VMOVUPS Z9, Z5
	VMOVUPS Z9, Z6
	VMOVUPS Z9, Z7
	CONVTAPS(ochannel, orow, otap, ostore, ZTAP8)

ostore:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	ADDQ    $512, DI
	LEAQ    (R13)(R12*8), R13
	SUBQ    $8, left-16(SP)
	JMP     oct

quad:
	CMPQ    left-16(SP), $4
	JLT     pair
	VMOVUPS Z9, Z0
	VMOVUPS Z9, Z1
	VMOVUPS Z9, Z2
	VMOVUPS Z9, Z3
	CONVTAPS(qchannel, qrow, qtap, qstore, ZTAP4)

qstore:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ    $256, DI
	LEAQ    (R13)(R12*4), R13
	SUBQ    $4, left-16(SP)

pair:
	CMPQ    left-16(SP), $2
	JLT     single
	VMOVUPS Z9, Z0
	VMOVUPS Z9, Z1
	CONVTAPS(pchannel, prow, ptap, pstore, ZTAP2)

pstore:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    $128, DI
	LEAQ    (R13)(R12*2), R13
	SUBQ    $2, left-16(SP)

single:
	CMPQ    left-16(SP), $1
	JLT     zdone
	VMOVUPS Z9, Z0
	CONVTAPS(schannel, srow, stap, sstore, ZTAP1)

sstore:
	VMOVUPS Z0, (DI)

zdone:
	VZEROUPPER
	RET

// TRANSPOSE8 turns the rows Y0-Y7 of an 8×8 block into its columns in
// Y8-Y15: Y(8+l) holds element l of Y0, ..., Y7. VUNPCKLPS/VUNPCKHPS
// interleave pairs of rows, VSHUFPS gathers four rows' elements in each
// 128-bit half, and VPERM2F128 joins the halves of rows 0-3 and 4-7.
#define TRANSPOSE8 \
	VUNPCKLPS  Y1, Y0, Y8; \
	VUNPCKHPS  Y1, Y0, Y9; \
	VUNPCKLPS  Y3, Y2, Y10; \
	VUNPCKHPS  Y3, Y2, Y11; \
	VUNPCKLPS  Y5, Y4, Y12; \
	VUNPCKHPS  Y5, Y4, Y13; \
	VUNPCKLPS  Y7, Y6, Y14; \
	VUNPCKHPS  Y7, Y6, Y15; \
	VSHUFPS    $0x44, Y10, Y8, Y0; \
	VSHUFPS    $0xee, Y10, Y8, Y1; \
	VSHUFPS    $0x44, Y11, Y9, Y2; \
	VSHUFPS    $0xee, Y11, Y9, Y3; \
	VSHUFPS    $0x44, Y14, Y12, Y4; \
	VSHUFPS    $0xee, Y14, Y12, Y5; \
	VSHUFPS    $0x44, Y15, Y13, Y6; \
	VSHUFPS    $0xee, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15

// STORE8 loads eight pixels' eight lanes at src (pixel stride 64 bytes),
// transposes them and stores lane l's eight pixels at dst + l*BX while
// l < rows, then jumps to done. R9/R10/R11 hold 3, 5 and 7 rows of BX.
#define STORE8(src, dst, rows, done) \
	VMOVUPS (src), Y0; \
	VMOVUPS 64(src), Y1; \
	VMOVUPS 128(src), Y2; \
	VMOVUPS 192(src), Y3; \
	VMOVUPS 256(src), Y4; \
	VMOVUPS 320(src), Y5; \
	VMOVUPS 384(src), Y6; \
	VMOVUPS 448(src), Y7; \
	TRANSPOSE8; \
	VMOVUPS Y8, (dst); \
	CMPQ    rows, $1; \
	JLE     done; \
	VMOVUPS Y9, (dst)(BX*1); \
	CMPQ    rows, $2; \
	JLE     done; \
	VMOVUPS Y10, (dst)(BX*2); \
	CMPQ    rows, $3; \
	JLE     done; \
	VMOVUPS Y11, (dst)(R9*1); \
	CMPQ    rows, $4; \
	JLE     done; \
	VMOVUPS Y12, (dst)(BX*4); \
	CMPQ    rows, $5; \
	JLE     done; \
	VMOVUPS Y13, (dst)(R10*1); \
	CMPQ    rows, $6; \
	JLE     done; \
	VMOVUPS Y14, (dst)(R9*2); \
	CMPQ    rows, $7; \
	JLE     done; \
	VMOVUPS Y15, (dst)(R11*1)

// func storeRunAVX(od []float32, ohw int, run []float32, n, live int)
//
// storeRunGo for n a multiple of eight: each block of eight pixels goes
// out as one 8×8 transpose per eight lanes (STORE8), lanes 0-7 to rows
// 0-7 and, when live > 8, lanes 8-15 to rows 8-15, and only rows below
// live are written. DI and SI are the block's first output cell and first
// result, BX the row stride, DX and R13 the rows of each half.
TEXT ·storeRunAVX(SB), NOSPLIT, $0-72
	MOVQ od_base+0(FP), DI
	MOVQ ohw+24(FP), BX
	SHLQ $2, BX
	LEAQ (BX)(BX*2), R9
	LEAQ (BX)(BX*4), R10
	LEAQ (R9)(BX*4), R11
	MOVQ run_base+32(FP), SI
	MOVQ live+64(FP), DX
	LEAQ -8(DX), R13
	MOVQ n+56(FP), CX
	SHRQ $3, CX
	JZ   sdone
	CMPQ DX, $0
	JLE  sdone

sblock:
	STORE8(SI, DI, DX, shigh)

shigh:
	CMPQ R13, $0
	JLE  snext
	LEAQ 32(SI), R12
	LEAQ (DI)(BX*8), R8
	STORE8(R12, R8, R13, snext)

snext:
	ADDQ $512, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  sblock
	VZEROUPPER

sdone:
	RET
