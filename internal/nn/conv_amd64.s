#include "textflag.h"

// func convTaps(acc *[convLanes]float32, w, x []float32, nc, ny, nx, xc, xy, xx, wc, wy int)
//
// X0-X3 hold the 16 accumulator lanes. Each tap broadcasts its input sample
// into X4 (MOVSS+SHUFPS), multiplies it into the tap's 16 packed weights
// (MULPS) and adds the products to the lanes (ADDPS). Taps run channel by
// channel, row by row, column by column, as in convTapsGo; strides are in
// float32 elements, scaled to bytes by the addressing.
TEXT ·convTaps(SB), NOSPLIT, $0-120
	MOVQ  nc+56(FP), R8
	TESTQ R8, R8
	JLE   done
	MOVQ  ny+64(FP), AX
	TESTQ AX, AX
	JLE   done
	MOVQ  nx+72(FP), AX
	TESTQ AX, AX
	JLE   done

	MOVQ   acc+0(FP), DI
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVQ   w_base+8(FP), R12  // first weight of the current channel
	MOVQ   x_base+32(FP), R13 // first sample of the current channel
	MOVQ   xx+96(FP), R11

channel:
	MOVQ R12, BX // first weight of the current row
	MOVQ R13, CX // first sample of the current row
	MOVQ ny+64(FP), R9

row:
	MOVQ BX, SI
	MOVQ CX, DX
	MOVQ nx+72(FP), R10

tap:
	MOVSS  (DX), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (SI), X5
	MOVUPS 16(SI), X6
	MOVUPS 32(SI), X7
	MOVUPS 48(SI), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $64, SI
	LEAQ   (DX)(R11*4), DX
	DECQ   R10
	JNZ    tap

	MOVQ wy+112(FP), AX
	LEAQ (BX)(AX*4), BX
	MOVQ xy+88(FP), AX
	LEAQ (CX)(AX*4), CX
	DECQ R9
	JNZ  row

	MOVQ wc+104(FP), AX
	LEAQ (R12)(AX*4), R12
	MOVQ xc+80(FP), AX
	LEAQ (R13)(AX*4), R13
	DECQ R8
	JNZ  channel

	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)

done:
	RET
