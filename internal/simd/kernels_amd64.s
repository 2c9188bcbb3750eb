//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA kernels. Each mirrors its Go twin in kernels.go lane for lane:
// float32 distance kernels convert 8 floats per step into two 4-lane f64
// accumulators (Y0 lanes take elements ≡0..3 mod 8, Y1 takes ≡4..7), every
// accumulation is a fused multiply-add, and reductions fold
// (acc0+acc1) → cross-half add → final pair, exactly reduce8/reduce4.
// Scalar tails use VEX scalar ops with the same FMA, in the same order.

// hsum8 reduces Y0+Y1 into X0 low lane: m = Y0+Y1; t = [m0+m2, m1+m3];
// s = t0+t1. Clobbers Y1/X1.
#define HSUM8(YA, YB, XA, XB)  \
	VADDPD  YB, YA, YA       \
	VEXTRACTF128 $1, YA, XB  \
	VADDPD  XB, XA, XA       \
	VPERMILPD $1, XA, XB     \
	VADDSD  XB, XA, XA

// hsum4 reduces Y0 into X0 low lane: t = [a0+a2, a1+a3]; s = t0+t1.
#define HSUM4(YA, XA, XB)  \
	VEXTRACTF128 $1, YA, XB  \
	VADDPD  XB, XA, XA       \
	VPERMILPD $1, XA, XB     \
	VADDSD  XB, XA, XA

// STEP8 accumulates 8 contiguous float32 squared differences at element
// offset reg IDX (elements IDX..IDX+7) from bases QP/CP into Y0 (lanes
// 0..3) and Y1 (lanes 4..7). Clobbers Y2-Y5.
#define STEP8(QP, CP, IDX)  \
	VMOVUPS (QP)(IDX*4), X2     \
	VMOVUPS 16(QP)(IDX*4), X3   \
	VMOVUPS (CP)(IDX*4), X4     \
	VMOVUPS 16(CP)(IDX*4), X5   \
	VCVTPS2PD X2, Y2            \
	VCVTPS2PD X3, Y3            \
	VCVTPS2PD X4, Y4            \
	VCVTPS2PD X5, Y5            \
	VSUBPD  Y4, Y2, Y2          \
	VSUBPD  Y5, Y3, Y3          \
	VFMADD231PD Y2, Y2, Y0      \
	VFMADD231PD Y3, Y3, Y1

// SCALARSTEP accumulates one float32 squared difference at element offset
// IDX into X0 low lane. Clobbers X2, X3.
#define SCALARSTEP(QP, CP, IDX)  \
	VMOVSS (QP)(IDX*4), X2    \
	VMOVSS (CP)(IDX*4), X3    \
	VCVTSS2SD X2, X2, X2      \
	VCVTSS2SD X3, X3, X3      \
	VSUBSD X3, X2, X2         \
	VFMADD231SD X2, X2, X0

// func squaredDistAVX2(q, c []float32) float64
TEXT ·squaredDistAVX2(SB), NOSPLIT, $0-56
	MOVQ q_base+0(FP), SI
	MOVQ c_base+24(FP), DI
	MOVQ q_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $7, DX

loop8:
	CMPQ AX, DX
	JGE  reduce
	STEP8(SI, DI, AX)
	ADDQ $8, AX
	JMP  loop8

reduce:
	HSUM8(Y0, Y1, X0, X1)

tail:
	CMPQ AX, CX
	JGE  done
	SCALARSTEP(SI, DI, AX)
	INCQ AX
	JMP  tail

done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func squaredDistEABlockedAVX2(q, c []float32, thr float64) float64
TEXT ·squaredDistEABlockedAVX2(SB), NOSPLIT, $0-64
	MOVQ q_base+0(FP), SI
	MOVQ c_base+24(FP), DI
	MOVQ q_len+8(FP), CX
	VMOVSD thr+48(FP), X15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $15, DX

block:
	CMPQ AX, DX
	JGE  reduce
	STEP8(SI, DI, AX)
	ADDQ $8, AX
	STEP8(SI, DI, AX)
	ADDQ $8, AX

	// partial = hsum8 into X6 without disturbing the accumulators.
	VADDPD Y1, Y0, Y6
	VEXTRACTF128 $1, Y6, X7
	VADDPD X7, X6, X6
	VPERMILPD $1, X6, X7
	VADDSD X7, X6, X6
	VUCOMISD X15, X6
	JA   abandoned
	JMP  block

abandoned:
	VMOVSD X6, ret+56(FP)
	VZEROUPPER
	RET

reduce:
	HSUM8(Y0, Y1, X0, X1)

tail:
	CMPQ AX, CX
	JGE  done
	SCALARSTEP(SI, DI, AX)
	INCQ AX
	JMP  tail

done:
	VMOVSD X0, ret+56(FP)
	VZEROUPPER
	RET

// func squaredDistEAOrderedBlockedAVX2(q, c []float32, starts []int, thr float64) float64
//
// The unordered kernel with the block offset loaded from starts instead of
// advanced by 16: R8 = min(len(starts), len(q)/16) blocks, each start
// clamped (unsigned) to R10 = len(q)-16 so that no slice of ints can steer a
// load outside q or c; the tail from 16·R8 on is sequential. The clamp is
// out of line: a series.Order never takes it, so a block pays one compare
// and one predicted branch for it.
TEXT ·squaredDistEAOrderedBlockedAVX2(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), SI
	MOVQ c_base+24(FP), DI
	MOVQ q_len+8(FP), CX
	MOVQ starts_base+48(FP), BX
	MOVQ starts_len+56(FP), R8
	VMOVSD thr+72(FP), X15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ CX, R9
	SHRQ $4, R9
	CMPQ R8, R9
	CMOVQGT R9, R8
	MOVQ CX, R10
	SUBQ $16, R10
	XORQ DX, DX

	// Prefetch the four leading blocks of the series 16 series-lengths past
	// c (R11 = c + 64·len(q) bytes): in a scan over the contiguous arena that
	// is a candidate sixteen calls ahead, and its blocks arrive in an order
	// no hardware prefetcher follows. PREFETCHT0 never faults, so the starts
	// need no clamp here and the address may lie past the arena.
	CMPQ R8, $4
	JLT  block
	MOVQ CX, R11
	SHLQ $6, R11
	ADDQ DI, R11
	MOVQ (BX), AX
	PREFETCHT0 (R11)(AX*4)
	MOVQ 8(BX), AX
	PREFETCHT0 (R11)(AX*4)
	MOVQ 16(BX), AX
	PREFETCHT0 (R11)(AX*4)
	MOVQ 24(BX), AX
	PREFETCHT0 (R11)(AX*4)

block:
	CMPQ DX, R8
	JGE  reduce
	MOVQ (BX)(DX*8), AX
	INCQ DX
	CMPQ AX, R10
	JHI  clamp

clamped:
	STEP8(SI, DI, AX)
	ADDQ $8, AX
	STEP8(SI, DI, AX)

	// partial = hsum8 into X6 without disturbing the accumulators.
	VADDPD Y1, Y0, Y6
	VEXTRACTF128 $1, Y6, X7
	VADDPD X7, X6, X6
	VPERMILPD $1, X6, X7
	VADDSD X7, X6, X6
	VUCOMISD X15, X6
	JA   abandoned
	JMP  block

clamp:
	MOVQ R10, AX
	JMP  clamped

abandoned:
	VMOVSD X6, ret+80(FP)
	VZEROUPPER
	RET

reduce:
	HSUM8(Y0, Y1, X0, X1)
	MOVQ R8, AX
	SHLQ $4, AX

tail:
	CMPQ AX, CX
	JGE  done
	SCALARSTEP(SI, DI, AX)
	INCQ AX
	JMP  tail

done:
	VMOVSD X0, ret+80(FP)
	VZEROUPPER
	RET

// STEP8W is STEP8 against a query already widened to float64: 8 float32
// values of the row at CP from element IDX are converted and subtracted from
// (not by) the widened query at QP, in the lanes STEP8 uses. c−q is the exact
// negation of q−c, so every square and sum is the one STEP8 makes. Clobbers
// Y4, Y5.
#define STEP8W(QP, CP, IDX)  \
	VCVTPS2PD (CP)(IDX*4), Y4     \
	VCVTPS2PD 16(CP)(IDX*4), Y5   \
	VSUBPD (QP)(IDX*8), Y4, Y4    \
	VSUBPD 32(QP)(IDX*8), Y5, Y5  \
	VFMADD231PD Y4, Y4, Y0        \
	VFMADD231PD Y5, Y5, Y1

// func scanRunAVX2(qw []float64, rows []float32, n int, starts []int, thr float64) (next int, sum float64)
//
// squaredDistEAOrderedBlockedAVX2 over the n rows of len(qw) values laid
// back to back from rows, without returning between them: R12 counts rows,
// DI points at the current one, and the kernel returns only with the first
// row whose full sum is not above thr (or with next = n). The threshold
// stays in X15 and the clamped block count in R8 for the whole run. The
// abandon test runs after every second block and once more on the full
// sum: partial sums never decrease, so a row passes exactly when its full
// sum is within thr, however often the partial sums are tested. The four
// leading blocks of the row sixteen rows ahead are prefetched, as the
// per-candidate kernel does.
TEXT ·scanRunAVX2(SB), NOSPLIT, $0-104
	MOVQ qw_base+0(FP), SI
	MOVQ qw_len+8(FP), CX
	MOVQ rows_base+24(FP), DI
	MOVQ n+48(FP), R13
	MOVQ starts_base+56(FP), BX
	MOVQ starts_len+64(FP), R8
	VMOVSD thr+80(FP), X15
	MOVQ CX, R9
	SHRQ $4, R9
	CMPQ R8, R9
	CMOVQGT R9, R8
	MOVQ CX, R10
	SUBQ $16, R10
	MOVQ CX, R14
	SHLQ $2, R14
	MOVQ CX, R11
	SHLQ $6, R11
	XORQ R12, R12

row:
	CMPQ R12, R13
	JGE  none
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ DX, DX
	CMPQ R8, $4
	JLT  block
	LEAQ (DI)(R11*1), R9
	MOVQ (BX), AX
	PREFETCHT0 (R9)(AX*4)
	MOVQ 8(BX), AX
	PREFETCHT0 (R9)(AX*4)
	MOVQ 16(BX), AX
	PREFETCHT0 (R9)(AX*4)
	MOVQ 24(BX), AX
	PREFETCHT0 (R9)(AX*4)

block:
	CMPQ DX, R8
	JGE  rowtail
	MOVQ (BX)(DX*8), AX
	INCQ DX
	CMPQ AX, R10
	JHI  clamp

clamped:
	STEP8W(SI, DI, AX)
	ADDQ $8, AX
	STEP8W(SI, DI, AX)
	TESTQ $1, DX
	JNE  block

	// partial = hsum8 into X6 without disturbing the accumulators.
	VADDPD Y1, Y0, Y6
	VEXTRACTF128 $1, Y6, X7
	VADDPD X7, X6, X6
	VPERMILPD $1, X6, X7
	VADDSD X7, X6, X6
	VUCOMISD X15, X6
	JA   abandoned
	JMP  block

clamp:
	MOVQ R10, AX
	JMP  clamped

rowtail:
	HSUM8(Y0, Y1, X0, X1)
	MOVQ R8, AX
	SHLQ $4, AX

tail:
	CMPQ AX, CX
	JGE  full
	VCVTSS2SD (DI)(AX*4), X2, X2
	VSUBSD (SI)(AX*8), X2, X2
	VFMADD231SD X2, X2, X0
	INCQ AX
	JMP  tail

full:
	VUCOMISD X15, X0
	JA   abandoned
	MOVQ R12, next+88(FP)
	VMOVSD X0, sum+96(FP)
	VZEROUPPER
	RET

abandoned:
	INCQ R12
	ADDQ R14, DI
	JMP  row

none:
	MOVQ R13, next+88(FP)
	MOVQ $0, sum+96(FP)
	VZEROUPPER
	RET

// CODEADD2 adds the ROW entries selected by the two low bytes of the 32-bit
// register whose byte halves are LO and HI (AL/AH, BL/BH) into the low lanes
// of ACC0 and ACC1. The high-byte move is what limits IDX to a register
// encodable without a REX prefix. Clobbers IDX.
#define CODEADD2(ROW, LO, HI, IDX, ACC0, ACC1)  \
	MOVBLZX LO, IDX            \
	ADDSD   (ROW)(IDX*8), ACC0 \
	MOVBLZX HI, IDX            \
	ADDSD   (ROW)(IDX*8), ACC1

// func codeBoundGroupsAsm(table []float64, offs []int, codesT []uint8, out []float64)
//
// Scores the len(out)/8 leading whole groups of eight candidates. A group
// walks the dimensions once: its eight code bytes of dimension d arrive in
// one 64-bit load (split into two 32-bit halves, so four bytes are
// addressable before any shift), and each byte selects the row entry added
// into that candidate's accumulator X0..X7, stored once per group. A code
// byte is at most 255 and the dispatcher admits only tables with
// offs[d]+256 <= len(table), so no load leaves table; the code loads stay
// inside dimension d's n-byte row because 8·groups <= n.
//
// The adds are legacy-encoded ADDSD on purpose: with an indexed memory
// operand the VEX form splits into two uops at issue, and this loop is
// issue-bound (VADDSD measured a third slower on Ice Lake). No VEX
// instruction runs here, and every AVX kernel leaves through VZEROUPPER, so
// there is no SSE/AVX transition to pay.
TEXT ·codeBoundGroupsAsm(SB), NOSPLIT, $0-96
	MOVQ table_base+0(FP), R8
	MOVQ offs_base+24(FP), R12
	MOVQ offs_len+32(FP), R13
	MOVQ codesT_base+48(FP), R10
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   done
	LEAQ (R12)(R13*8), R13

group:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ R10, R11
	MOVQ R12, R15
	CMPQ R15, R13
	JEQ  store

dim:
	MOVQ (R15), R9
	LEAQ (R8)(R9*8), R9
	MOVQ (R11), AX
	MOVQ AX, BX
	SHRQ $32, BX
	ADDQ CX, R11
	CODEADD2(R9, AL, AH, SI, X0, X1)
	CODEADD2(R9, BL, BH, SI, X4, X5)
	SHRL $16, AX
	SHRL $16, BX
	CODEADD2(R9, AL, AH, SI, X2, X3)
	CODEADD2(R9, BL, BH, SI, X6, X7)
	ADDQ $8, R15
	CMPQ R15, R13
	JNE  dim

store:
	MOVSD X0, (DI)
	MOVSD X1, 8(DI)
	MOVSD X2, 16(DI)
	MOVSD X3, 24(DI)
	MOVSD X4, 32(DI)
	MOVSD X5, 40(DI)
	MOVSD X6, 48(DI)
	MOVSD X7, 56(DI)
	ADDQ $64, DI
	ADDQ $8, R10
	DECQ DX
	JNZ  group

done:
	RET

// CLAMP4 computes max(LO-V, V-HI, 0) into DST (all ymm). Y14 must hold
// zero. Clobbers YT.
#define CLAMP4(V, LO, HI, DST, YT)  \
	VSUBPD V, LO, DST   \
	VSUBPD HI, V, YT    \
	VMAXPD YT, DST, DST \
	VMAXPD Y14, DST, DST

// SCALARCLAMP computes max(lo-v, v-hi, 0) into DST (xmm scalars). X14
// must hold zero. Clobbers XT.
#define SCALARCLAMP(V, LO, HI, DST, XT)  \
	VSUBSD V, LO, DST   \
	VSUBSD HI, V, XT    \
	VMAXSD XT, DST, DST \
	VMAXSD X14, DST, DST

// func intervalDistSqAVX2(v, lo, hi []float64) float64
TEXT ·intervalDistSqAVX2(SB), NOSPLIT, $0-80
	MOVQ v_base+0(FP), SI
	MOVQ lo_base+24(FP), BX
	MOVQ hi_base+48(FP), DI
	MOVQ v_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y14, Y14, Y14
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $3, DX

loop4:
	CMPQ AX, DX
	JGE  reduce
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (BX)(AX*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	CLAMP4(Y2, Y3, Y4, Y5, Y6)
	VFMADD231PD Y5, Y5, Y0
	ADDQ $4, AX
	JMP  loop4

reduce:
	HSUM4(Y0, X0, X1)

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (BX)(AX*8), X3
	VMOVSD (DI)(AX*8), X4
	SCALARCLAMP(X2, X3, X4, X5, X6)
	VFMADD231SD X5, X5, X0
	INCQ AX
	JMP  tail

done:
	VMOVSD X0, ret+72(FP)
	VZEROUPPER
	RET

// func weightedIntervalDistSqAVX2(v, lo, hi, w []float64) float64
TEXT ·weightedIntervalDistSqAVX2(SB), NOSPLIT, $0-104
	MOVQ v_base+0(FP), SI
	MOVQ lo_base+24(FP), BX
	MOVQ hi_base+48(FP), DI
	MOVQ w_base+72(FP), R8
	MOVQ v_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y14, Y14, Y14
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $3, DX

loop4:
	CMPQ AX, DX
	JGE  reduce
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (BX)(AX*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	CLAMP4(Y2, Y3, Y4, Y5, Y6)
	VMULPD Y5, Y5, Y5
	VMOVUPD (R8)(AX*8), Y7
	VFMADD231PD Y5, Y7, Y0
	ADDQ $4, AX
	JMP  loop4

reduce:
	HSUM4(Y0, X0, X1)

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (BX)(AX*8), X3
	VMOVSD (DI)(AX*8), X4
	SCALARCLAMP(X2, X3, X4, X5, X6)
	VMULSD X5, X5, X5
	VMOVSD (R8)(AX*8), X7
	VFMADD231SD X5, X7, X0
	INCQ AX
	JMP  tail

done:
	VMOVSD X0, ret+96(FP)
	VZEROUPPER
	RET

// func eapcaBoundAVX2(qm, qs, w, minMean, maxMean, minStd, maxStd []float64) float64
TEXT ·eapcaBoundAVX2(SB), NOSPLIT, $0-176
	MOVQ qm_base+0(FP), SI
	MOVQ qs_base+24(FP), DI
	MOVQ w_base+48(FP), BX
	MOVQ minMean_base+72(FP), R8
	MOVQ maxMean_base+96(FP), R9
	MOVQ minStd_base+120(FP), R10
	MOVQ maxStd_base+144(FP), R11
	MOVQ w_len+56(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y14, Y14, Y14
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $3, DX

loop4:
	CMPQ AX, DX
	JGE  reduce
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VMOVUPD (R9)(AX*8), Y4
	CLAMP4(Y2, Y3, Y4, Y5, Y6)
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (R10)(AX*8), Y3
	VMOVUPD (R11)(AX*8), Y4
	CLAMP4(Y2, Y3, Y4, Y7, Y6)
	VMULPD Y5, Y5, Y5
	VFMADD231PD Y7, Y7, Y5
	VMOVUPD (BX)(AX*8), Y8
	VFMADD231PD Y5, Y8, Y0
	ADDQ $4, AX
	JMP  loop4

reduce:
	HSUM4(Y0, X0, X1)

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (R8)(AX*8), X3
	VMOVSD (R9)(AX*8), X4
	SCALARCLAMP(X2, X3, X4, X5, X6)
	VMOVSD (DI)(AX*8), X2
	VMOVSD (R10)(AX*8), X3
	VMOVSD (R11)(AX*8), X4
	SCALARCLAMP(X2, X3, X4, X7, X6)
	VMULSD X5, X5, X5
	VFMADD231SD X7, X7, X5
	VMOVSD (BX)(AX*8), X8
	VFMADD231SD X5, X8, X0
	INCQ AX
	JMP  tail

done:
	VMOVSD X0, ret+168(FP)
	VZEROUPPER
	RET

// func storeWeightedIntervalSqAVX2(v, w float64, lo, hi, out []float64)
TEXT ·storeWeightedIntervalSqAVX2(SB), NOSPLIT, $0-88
	VBROADCASTSD v+0(FP), Y2
	VBROADCASTSD w+8(FP), Y8
	MOVQ lo_base+16(FP), BX
	MOVQ hi_base+40(FP), DI
	MOVQ out_base+64(FP), SI
	MOVQ out_len+72(FP), CX
	VXORPD Y14, Y14, Y14
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $3, DX

loop4:
	CMPQ AX, DX
	JGE  tail
	VMOVUPD (BX)(AX*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	CLAMP4(Y2, Y3, Y4, Y5, Y6)
	VMULPD Y5, Y5, Y5
	VMULPD Y8, Y5, Y5
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ $4, AX
	JMP  loop4

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (BX)(AX*8), X3
	VMOVSD (DI)(AX*8), X4
	SCALARCLAMP(X2, X3, X4, X5, X6)
	VMULSD X5, X5, X5
	VMULSD X8, X5, X5
	VMOVSD X5, (SI)(AX*8)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// 1/BlockLen and 1/√BlockLen, the two exact scalings of a block's sum.
DATA blockMomentScale<>+0(SB)/8, $0x3FB0000000000000 // 0.0625
DATA blockMomentScale<>+8(SB)/8, $0x3FD0000000000000 // 0.25
GLOBL blockMomentScale<>(SB), RODATA|NOPTR, $16

// BLOCKSUM folds the four quarters of one block, held as 4-lane f64 vectors
// A0..A3 (element i in lane i mod 4), into DST = (A0+A1)+(A2+A3). Clobbers T.
#define BLOCKSUM(A0, A1, A2, A3, DST, T)  \
	VADDPD A1, A0, DST  \
	VADDPD A3, A2, T    \
	VADDPD T, DST, DST

// BLOCKDEV replaces A0 by the lanewise squared deviations of one block from
// the mean broadcast in M: fma(d1,d1,d0·d0) + fma(d3,d3,d2·d2). Clobbers
// A1..A3.
#define BLOCKDEV(A0, A1, A2, A3, M)  \
	VSUBPD M, A0, A0          \
	VSUBPD M, A1, A1          \
	VSUBPD M, A2, A2          \
	VSUBPD M, A3, A3          \
	VMULPD A0, A0, A0         \
	VFMADD231PD A1, A1, A0    \
	VMULPD A2, A2, A2         \
	VFMADD231PD A3, A3, A2    \
	VADDPD A2, A0, A0

// PAIRHSUM reduces the lane vectors YA and YB of two blocks to XD =
// [(a0+a1)+(a2+a3), (b0+b1)+(b2+b3)]. Clobbers XT.
#define PAIRHSUM(YA, YB, YD, XD, XT)  \
	VHADDPD YB, YA, YD        \
	VEXTRACTF128 $1, YD, XT   \
	VADDPD XT, XD, XD

// func blockMomentPairsAVX2(x, out []float32, pairs int)
//
// Two blocks of sixteen float32 values per step, each converted once into
// four f64 vectors that stay in registers for both passes (sum, then squared
// deviations from the mean); the two blocks' horizontal sums share one
// VHADDPD, and their four results leave as one 16-byte store
// [√w·mean, √w·std] × 2. The caller guarantees 32·pairs values in x and
// 4·pairs in out.
//
// Each step prefetches its two cache lines 2 KB ahead. The derive pass calls
// this once per series over a contiguous arena that is not in the core's
// caches (a snapshot load reads it for the first time), and each call is too
// short for the hardware prefetcher to run ahead: without the hint the pass
// waits on memory, 2.1 ms per 10 MB against 1.1 ms. A prefetch cannot fault,
// so the address may lie past x.
TEXT ·blockMomentPairsAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ out_base+24(FP), DI
	MOVQ pairs+48(FP), CX
	VMOVDDUP blockMomentScale<>+0(SB), X14
	VMOVDDUP blockMomentScale<>+8(SB), X15
	TESTQ CX, CX
	JLE  done

pair:
	PREFETCHT0 2048(SI)
	PREFETCHT0 2112(SI)
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VCVTPS2PD 32(SI), Y2
	VCVTPS2PD 48(SI), Y3
	VCVTPS2PD 64(SI), Y4
	VCVTPS2PD 80(SI), Y5
	VCVTPS2PD 96(SI), Y6
	VCVTPS2PD 112(SI), Y7
	BLOCKSUM(Y0, Y1, Y2, Y3, Y8, Y10)
	BLOCKSUM(Y4, Y5, Y6, Y7, Y9, Y10)
	PAIRHSUM(Y8, Y9, Y10, X10, X11)
	VMULPD X14, X10, X11      // the two means
	VMULPD X15, X10, X10      // the two √w·mean
	VPERMPD $0x00, Y11, Y12
	VPERMPD $0x55, Y11, Y13
	BLOCKDEV(Y0, Y1, Y2, Y3, Y12)
	BLOCKDEV(Y4, Y5, Y6, Y7, Y13)
	PAIRHSUM(Y0, Y4, Y8, X8, X9)
	VSQRTPD X8, X8            // the two √w·std
	VCVTPD2PSX X10, X10
	VCVTPD2PSX X8, X8
	VUNPCKLPS X8, X10, X10
	VMOVUPS X10, (DI)
	ADDQ $128, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  pair

done:
	VZEROUPPER
	RET

// func allFiniteAVX2(x []float32) bool
//
// Reports whether none of the len(x)/8·8 leading values of x is a NaN or an
// infinity — a float32 whose exponent field (Y15) is all ones: eight values
// a step are masked and compared with the field, and the matches ORed into
// Y1, tested once at the end. The caller checks the len(x)%8 tail.
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-25
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	MOVQ $0x7f800000, AX
	MOVQ AX, X15
	VPBROADCASTD X15, Y15
	VPXOR Y1, Y1, Y1
	TESTQ CX, CX
	JZ   done

loop:
	VANDPS (SI), Y15, Y0
	VPCMPEQD Y15, Y0, Y0
	VPOR Y0, Y1, Y1
	ADDQ $32, SI
	DECQ CX
	JNZ  loop

done:
	VPTEST Y1, Y1
	SETEQ ret+24(FP)
	VZEROUPPER
	RET
