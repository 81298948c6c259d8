// Package filecule is a reproduction of "Filecules in High-Energy Physics:
// Characteristics and Impact on Resource Management" (Iamnitchi, Doraimani,
// Garzoglio; HPDC 2006).
//
// A filecule is a maximal group of files that is always used together: the
// equivalence classes of files under "requested by exactly the same set of
// jobs". The paper shows that managing scientific data at filecule
// granularity — instead of the traditional single-file granularity —
// substantially improves caching (a 4-5x lower LRU miss rate at large cache
// sizes), and examines the consequences for replication, data transfer and
// BitTorrent-style distribution.
//
// The library lives under internal/:
//
//	internal/trace       workload model, codec, summaries
//	internal/synth       calibrated synthetic DZero workload generator
//	internal/core        filecule identification (batch, online, partial)
//	internal/cache       trace-driven cache simulator and policy zoo
//	internal/sim         discrete-event kernel
//	internal/grid        WAN/site substrate with fair-shared links
//	internal/swarm       access-interval analysis and swarm fluid model
//	internal/replica     proactive replication strategies
//	internal/stats       histograms, ECDF, Zipf fits
//	internal/dist        random distributions
//	internal/report      tables, bars, timelines
//	internal/experiments one driver per table/figure of the paper
//
// Entry points: cmd/filecule-repro (the reproduction report, whole or by
// experiment), cmd/filecule-gen, cmd/filecule-cachesim, cmd/filecule-serve,
// and examples/quickstart; the Example functions of core, cache, prefetch
// and replica are walkthroughs that go test runs and checks.
//
// The benchmarks in bench_test.go regenerate every table and figure; see
// EXPERIMENTS.md for paper-vs-measured numbers and DESIGN.md for the system
// inventory and the substitutions made for the proprietary DZero trace.
package filecule
