// Package simd is the kernel layer: the innermost arithmetic loops of query
// answering — exact Euclidean distance with blocked early abandoning
// (sequential, and with whole BlockLen-element blocks reordered: one cache
// line per block and contiguous loads, never an element gather; the
// reordered kernel also as a run over consecutive arena rows, ScanRun,
// which returns only at a row within the bound), code-table
// lookups for batched lower bounds (eight candidates a group, sums held in
// registers — no vector gather either), interval (region/MBR/EAPCA) bound
// sums, the per-block moments of a series (the derive pass of the member
// synopses), and the finite-values check of the public boundary
// (FirstNonFinite) — each available as hand-written assembly on amd64 (AVX2+FMA
// where vectors pay, plain scalar SSE2 for the table lookups) with a
// portable Go twin, selected once at startup by runtime CPU-feature
// detection.
//
// # Dispatch rules
//
// Every exported kernel dispatches through one package-level decision made
// in init:
//
//   - On amd64, CPUID is probed for AVX, AVX2, FMA and OS support of YMM
//     state (OSXSAVE + XGETBV). All four present selects the assembly
//     backend; anything missing selects the Go backend.
//   - Building with the purego tag, or running on any other GOARCH,
//     compiles only the Go backend (no assembly is linked at all).
//   - The HYDRA_SIMD environment variable overrides detection: "off", "go"
//     or "0" forces the Go backend on a capable machine; "avx2" (or any
//     other value) keeps automatic selection, so forcing SIMD on a machine
//     without it degrades gracefully to the Go backend instead of crashing.
//
// Backend reports the selected backend and Features the detected hardware
// capabilities; cmd/hydra-bench records both in its stdout header and
// BENCH_*.json artifacts so performance numbers stay attributable to the
// kernels that produced them.
//
// # Bit-identical contract
//
// The assembly and Go paths of one kernel return bit-identical float64
// results for every input: same lane structure (which elements feed which
// accumulator), same fused multiply-adds (the Go twins use math.FMA exactly
// where the assembly issues VFMADD), same fixed reduction tree, and the
// same early-abandon check granularity. A program therefore computes the
// same answers on every backend, and the equivalence/fuzz suites in this
// package enforce the contract across lengths, alignments, abandon bounds
// and code tables. The kernels are NOT bit-identical to a naive sequential
// loop over the same data — reassociating the accumulation is what makes
// them fast — so callers that need a scalar reference use the unblocked
// kernels in internal/series.
//
// The run kernel's contract is stated over the rows that pass: ScanRun
// returns the same row, with the same bits, as SquaredDistEAOrderedBlocked
// called row by row and tested against the same threshold, on either
// backend, although it tests a partial sum only after every second block
// and once on the full sum. Which rows pass does not depend on that
// schedule: the lane accumulators only grow (a fused multiply-add of a
// square onto a sum rounds to no less than the sum) and so does every
// reduction of them, so a row passes exactly when its full sum is within
// the threshold. The partial sums of abandoned rows are not returned.
//
// # Adding a kernel
//
// New kernels follow the same recipe:
//
//  1. Write the Go twin in kernels.go pinning the exact lane structure and
//     reduction order (use lane accumulators l0.. and reduce4/reduce8; use
//     math.FMA for every accumulation the assembly will fuse).
//  2. Write the assembly in kernels_amd64.s mirroring that structure, and
//     declare it with //go:noescape in dispatch_amd64.go.
//  3. Export a dispatching wrapper in both dispatch_amd64.go and
//     dispatch_fallback.go (identical signatures; the fallback calls the Go
//     twin directly).
//  4. Extend the equivalence suite in simd_test.go: bit-compare both paths
//     over lengths 0..2·lane width and beyond, misaligned subslice views,
//     and adversarial abandon bounds.
//
// Kernels trust their callers: length preconditions are documented per
// function and checked with at most O(1) work, because these loops sit
// under every distance computation and lower bound in the suite. Arguments
// that address memory are the exception. The block starts of
// SquaredDistEAOrderedBlocked and ScanRun are clamped into the series as
// they are read, on both backends alike, and ScanRun checks in O(1) that
// its rows hold the n series it is asked to walk. (The assembly's
// look-ahead prefetch in those kernels forms addresses past the data on
// purpose; a prefetch cannot fault and loads nothing the kernel computes
// with.) The code bytes and row offsets
// of CodeBoundBatch are checked once per call, O(dimensions): the assembly
// indexes rows with raw bytes, so the dispatcher takes it only when every
// row start leaves 256 entries inside the table, and runs the
// bounds-checked Go kernel on anything else.
//
// No kernel uses a vector gather (VGATHER*): the two that did were each
// three to seven times slower than the contiguous or scalar formulation
// that replaced them, and CI fails if the mnemonic reappears.
package simd
