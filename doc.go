// Package dcstream is a from-scratch Go implementation of the Distributed
// Collaborative Streaming (DCS) system of "Scalable and Efficient Data
// Streaming Algorithms for Detecting Common Content in Internet Traffic"
// (Sung, Kumar, Li, Wang, Xu — ICDE 2006).
//
// The module root carries the benchmark that regenerates every table and
// figure of the paper's evaluation (BenchmarkExperiments in bench_test.go,
// one sub-benchmark per entry of experiments.All); the implementation
// lives under internal/ (see DESIGN.md §2 for the package map), runnable
// scenarios under examples/, and the operational binaries under cmd/.
//
// Entry points:
//
//   - internal/aligned and internal/unaligned: the per-router collectors;
//     internal/center: the analysis of every epoch's digests. The examples
//     wire one to the other directly.
//   - internal/experiments: one harness per paper table/figure, listed in
//     the experiments.All registry.
//   - cmd/dcsbench: regenerate any artifact at test/default/paper scale.
//   - bench/: the system benchmark (go run ./bench) — the real dcsd driven
//     end to end, with a per-layer table; dcsbench does not measure the system.
//   - cmd/dcsd + cmd/dcsnode: the distributed deployment over TCP and UDP;
//     dcsd is a flag set over internal/daemon, the one assembly of the
//     analysis-center pipeline (Node + Run).
//   - cmd/dcstrace + cmd/dcsreplay: record and replay packet traces.
//
// DESIGN.md holds the system inventory and substitution notes;
// EXPERIMENTS.md records paper-versus-measured results for every artifact.
package dcstream
