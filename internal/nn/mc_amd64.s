#include "textflag.h"

// The Monte-Carlo tail's kernels: the channel softmax with a vector exp, and
// the dropout keep mask.

// expconst holds the float64 constants of the FMA path of Go's math.Exp on
// amd64 ($GOROOT/src/math/exp_amd64.s), four lanes each and written as that
// file writes them: LOG2E, LN2U, LN2L, 1/16, the Taylor coefficients 1/8!
// down to 1/3!, then 1/2, 1 and 2; at 416 the exponent bias 1023 in four
// int32 lanes.
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+96(SB)/8, $0.0625
DATA expconst<>+104(SB)/8, $0.0625
DATA expconst<>+112(SB)/8, $0.0625
DATA expconst<>+120(SB)/8, $0.0625
DATA expconst<>+128(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+136(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+144(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+152(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+160(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+168(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+176(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+184(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+192(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+200(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+208(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+216(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+224(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+232(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+240(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+248(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+256(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+264(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+272(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+280(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+288(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+296(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+304(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+312(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+320(SB)/8, $0.5
DATA expconst<>+328(SB)/8, $0.5
DATA expconst<>+336(SB)/8, $0.5
DATA expconst<>+344(SB)/8, $0.5
DATA expconst<>+352(SB)/8, $1.0
DATA expconst<>+360(SB)/8, $1.0
DATA expconst<>+368(SB)/8, $1.0
DATA expconst<>+376(SB)/8, $1.0
DATA expconst<>+384(SB)/8, $2.0
DATA expconst<>+392(SB)/8, $2.0
DATA expconst<>+400(SB)/8, $2.0
DATA expconst<>+408(SB)/8, $2.0
DATA expconst<>+416(SB)/4, $1023
DATA expconst<>+420(SB)/4, $1023
DATA expconst<>+424(SB)/4, $1023
DATA expconst<>+428(SB)/4, $1023
GLOBL expconst<>(SB), RODATA|NOPTR, $432

// softconst holds the float32 constants of the softmax: -Inf, +Inf and 1,
// then at 32 the lower end of the vector exp's domain, -104, in eight lanes.
DATA softconst<>+0(SB)/4, $0xff800000
DATA softconst<>+4(SB)/4, $0x7f800000
DATA softconst<>+8(SB)/4, $0x3f800000
DATA softconst<>+32(SB)/4, $0xc2d00000
DATA softconst<>+36(SB)/4, $0xc2d00000
DATA softconst<>+40(SB)/4, $0xc2d00000
DATA softconst<>+44(SB)/4, $0xc2d00000
DATA softconst<>+48(SB)/4, $0xc2d00000
DATA softconst<>+52(SB)/4, $0xc2d00000
DATA softconst<>+56(SB)/4, $0xc2d00000
DATA softconst<>+60(SB)/4, $0xc2d00000
GLOBL softconst<>(SB), RODATA|NOPTR, $64

// EXPPD replaces the four float64 lanes of x, each in [-104, 0], with their
// exp, computed by the operations of math.Exp's FMA path in its order, so
// each lane is that function's result bit for bit (the scalar path's range
// checks, denormal and overflow branches are never taken in this domain):
//   - k = round(x·LOG2E) by VCVTPD2DQ (tx, the low half of t), kd = k as
//     float64 by VCVTDQ2PD;
//   - x = x - kd·LN2U, then x - kd·LN2L, each one fused VFNMADD231PD, then
//     x·1/16;
//   - p = 1/8!, then seven VFMADD213PD Horner steps p = p·x + c for c =
//     1/7! ... 1/3!, 1/2, 1; then y = x·p;
//   - three squarings y = y·(y+2), and a fourth fused with the +1:
//     y = (y+2)·y + 1 in one VFMADD213PD;
//   - y·2^k, with 2^k built as (k+1023)<<52.
// x, t, kd and p must be distinct Y registers; tx is t's low half.
#define EXPPD(x, t, tx, kd, p) \
	VMULPD       expconst<>+0(SB), x, t;   \
	VCVTPD2DQY   t, tx;                    \
	VCVTDQ2PD    tx, kd;                   \
	VFNMADD231PD expconst<>+32(SB), kd, x; \
	VFNMADD231PD expconst<>+64(SB), kd, x; \
	VMULPD       expconst<>+96(SB), x, x;  \
	VMOVUPD      expconst<>+128(SB), p;    \
	VFMADD213PD  expconst<>+160(SB), x, p; \
	VFMADD213PD  expconst<>+192(SB), x, p; \
	VFMADD213PD  expconst<>+224(SB), x, p; \
	VFMADD213PD  expconst<>+256(SB), x, p; \
	VFMADD213PD  expconst<>+288(SB), x, p; \
	VFMADD213PD  expconst<>+320(SB), x, p; \
	VFMADD213PD  expconst<>+352(SB), x, p; \
	VMULPD       p, x, x;                  \
	VADDPD       expconst<>+384(SB), x, p; \
	VMULPD       p, x, x;                  \
	VADDPD       expconst<>+384(SB), x, p; \
	VMULPD       p, x, x;                  \
	VADDPD       expconst<>+384(SB), x, p; \
	VMULPD       p, x, x;                  \
	VADDPD       expconst<>+384(SB), x, p; \
	VFMADD213PD  expconst<>+352(SB), p, x; \
	VPADDD       expconst<>+416(SB), tx, tx; \
	VPMOVZXDQ    tx, t;                    \
	VPSLLQ       $52, t, t;                \
	VMULPD       t, x, x

// func softmaxAVX(out, x []float32, np, c, stride int) int
//
// Eight pixels at a time while eight are left, one channel row of eight
// lanes per step (channel ci at ci*stride floats), in three passes:
//   1. m = v > m ? v : m from -Inf (VMAXPS with the logit as first source
//      returns it only when it is greater), and beside it the minimum mn and
//      whether any logit is NaN. Every d = v - m then lies in [mn - m, 0],
//      as float32 subtraction is monotone, so the group is in the exp's
//      domain exactly when there is no NaN and mn - m >= -104 (an ordered
//      compare: NaN, from infinite m, fails). Otherwise the kernel returns
//      before writing anything of the group.
//   2. d = v - m, widened to two halves of four float64 lanes, exp
//      (EXPPD), narrowed to float32 (VCVTPD2PS rounds as a float32
//      conversion does), stored, and added to the group's sums in channel
//      order.
//   3. inv = 1/sum, and every stored e times inv.
//
// Registers: DI/SI the outputs and logits, R8 np, R9 c, R10 the channel
// stride in bytes, AX the pixels done, R11/R12 the current logit and output
// rows, CX the channel counter; Y0 m, Y1 the sums, Y2 mn, Y3 the NaN lanes,
// Y4 the current row, Y5-Y12 the two exp halves.
TEXT ·softmaxAVX(SB), NOSPLIT, $0-80
	MOVQ  out_base+0(FP), DI
	MOVQ  x_base+24(FP), SI
	MOVQ  np+48(FP), R8
	MOVQ  c+56(FP), R9
	MOVQ  stride+64(FP), R10
	SHLQ  $2, R10
	XORQ  AX, AX
	TESTQ R9, R9
	JLE   smdone

smgroup:
	LEAQ 8(AX), DX
	CMPQ DX, R8
	JGT  smdone

	VBROADCASTSS softconst<>+0(SB), Y0
	VBROADCASTSS softconst<>+4(SB), Y2
	VXORPS       Y3, Y3, Y3
	LEAQ         (SI)(AX*4), R11
	MOVQ         R9, CX

smmax:
	VMOVUPS (R11), Y4
	VMAXPS  Y0, Y4, Y0
	VMINPS  Y2, Y4, Y2
	VCMPPS  $3, Y4, Y4, Y5
	VORPS   Y5, Y3, Y3
	ADDQ    R10, R11
	DECQ    CX
	JNZ     smmax

	VSUBPS    Y0, Y2, Y2
	VCMPPS    $0x1d, softconst<>+32(SB), Y2, Y2
	VANDNPS   Y2, Y3, Y2
	VMOVMSKPS Y2, DX
	CMPL      DX, $0xff
	JNE       smdone

	VXORPS Y1, Y1, Y1
	LEAQ   (SI)(AX*4), R11
	LEAQ   (DI)(AX*4), R12
	MOVQ   R9, CX

smexp:
	VMOVUPS      (R11), Y4
	VSUBPS       Y0, Y4, Y4
	VCVTPS2PD    X4, Y5
	VEXTRACTF128 $1, Y4, X6
	VCVTPS2PD    X6, Y6
	EXPPD(Y5, Y7, X7, Y8, Y9)
	EXPPD(Y6, Y10, X10, Y11, Y12)
	VCVTPD2PSY   Y5, X5
	VCVTPD2PSY   Y6, X6
	VINSERTF128  $1, X6, Y5, Y5
	VMOVUPS      Y5, (R12)
	VADDPS       Y5, Y1, Y1
	ADDQ         R10, R11
	ADDQ         R10, R12
	DECQ         CX
	JNZ          smexp

	VBROADCASTSS softconst<>+8(SB), Y4
	VDIVPS       Y1, Y4, Y1
	LEAQ         (DI)(AX*4), R12
	MOVQ         R9, CX

smscale:
	VMULPS  (R12), Y1, Y4
	VMOVUPS Y4, (R12)
	ADDQ    R10, R12
	DECQ    CX
	JNZ     smscale

	ADDQ $8, AX
	JMP  smgroup

smdone:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

// func expAVX(dst, src []float32)
//
// The softmax's exp on its own, four lanes at a time: dst[i] =
// float32(exp(float64(src[i]))) by EXPPD. len(src) must be a multiple of
// four, every src[i] in [-104, 0], and dst as long as src.
TEXT ·expAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ   expdone

exploop:
	VCVTPS2PD  (SI), Y5
	EXPPD(Y5, Y7, X7, Y8, Y9)
	VCVTPD2PSY Y5, X5
	VMOVUPS    X5, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        exploop

expdone:
	VZEROUPPER
	RET

// func applyKeepAVX(dst, src []float32, keep []byte, scale float32)
//
// Eight units at a time: VPMOVZXBD widens eight keep bytes to int32 lanes,
// VPSUBD from zero turns each into -keep (all ones for 1, zero for 0),
// VMULPS scales the units and VANDPS masks them, so each lane is
// bits(v*scale) & -keep as in applyKeepGo. The last len(keep) mod 8 units go
// one at a time, the same way in scalar registers.
TEXT ·applyKeepAVX(SB), NOSPLIT, $0-76
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         keep_base+48(FP), DX
	MOVQ         keep_len+56(FP), CX
	VBROADCASTSS scale+72(FP), Y1
	VXORPS       Y0, Y0, Y0
	CMPQ         CX, $8
	JLT          kptail

kpvec:
	VPMOVZXBD (DX), Y2
	VPSUBD    Y2, Y0, Y2
	VMULPS    (SI), Y1, Y3
	VANDPS    Y2, Y3, Y3
	VMOVUPS   Y3, (DI)
	ADDQ      $8, DX
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       kpvec

kptail:
	TESTQ CX, CX
	JLE   kpdone

kpone:
	MOVBLZX (DX), AX
	NEGL    AX
	VMULSS  (SI), X1, X3
	VMOVD   X3, BX
	ANDL    AX, BX
	MOVL    BX, (DI)
	INCQ    DX
	ADDQ    $4, SI
	ADDQ    $4, DI
	DECQ    CX
	JNZ     kpone

kpdone:
	VZEROUPPER
	RET
