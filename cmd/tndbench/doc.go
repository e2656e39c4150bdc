// Command tndbench is the repository's benchmark: one single-process
// harness that runs the paper's pipelines at a scale that means
// something, times them end to end and layer by layer, and checks
// their outputs while it does. Every performance claim about the
// repository is a comparison of two sets of its result files.
//
// Run it from the repository root; run.sh builds it (it is a module of
// its own, built against the repository through a replace directive)
// and keeps every file it writes under .bench_build/:
//
//	bash cmd/tndbench/run.sh -workload <name|all> -seed <n> [-seconds 30] [-trace 0|1]
//	                         [-out result.json] [-trace-out spans.json]
//	                         [-cpuprofile cpu.out] [-memprofile mem.out] [-quick]
//	bash cmd/tndbench/run.sh -compare base.json... -- new.json...
//
// A run prints one "name value unit n=<samples>" line per metric and,
// as its last line, a JSON object with the keys correct, attempted,
// failed and metrics. It exits non-zero when any correctness gate
// fails. -out appends the run, with its sample counts, GOMAXPROCS,
// nproc, commit and seed, to a result file of fixed schema.
// -workload all runs every workload in a fresh child process, so each
// reports its own peak memory.
//
// # Workloads
//
// The seed makes the inputs: the same seed gives the same inputs. The
// default seed 20050405 is the dataset generator's calibration seed;
// seed 1 is held out for claims.
//
//   - mine-paper: Figure 2's Algorithm 1 at full scale: 98,292
//     transactions generated from the seed, 800 breadth-first
//     partitions × 2 repetitions, support 240, patterns up to five
//     edges, persisted to a v4 store. Each mine (BuildGraph →
//     core.MineStructural → durable store) runs at least three times
//     and again while another fits in the run's seconds; generating
//     the dataset is set-up. fsg, iso and pattern do the work; ingest
//     and serve do none.
//   - ingest-window: the Figure 4 temporal partition of the calibrated
//     dataset at scale 0.5 (2,767 transactions) in calendar order, the
//     seed permuting each run of 100 consecutive transactions, so they
//     arrive up to ten batches out of order. The ingest daemon keeps a
//     120-batch sliding window at support 4 and remounts every
//     generation into an in-process serve. The seed store holds the
//     first 119 batches of 10 transactions, so every measured batch
//     slides the window; 5 warm-up batches, then 3 batches a second
//     POSTed to /v1/ingest for the run's seconds, with no query load.
//     ingest, store and faultfs carry the load.
//   - query-hot: serve over an Algorithm 1 store (scale 0.25) and a
//     freshly mined 120-batch window, with the loadtest mix — 4 point :
//     2 batch of 32 : 2 support : 1 location : 1 stores — sent open
//     loop at 600 requests a second after 2 s of warm-up. Codes have
//     Zipf(1.1) popularity over the union of both stores' codes;
//     labels are uniform over the window's. Bodies fit the 8 MiB cache,
//     so the hot path runs and mining is idle. A child process
//     (tndbench -stores) mines the two stores, so peak_rss_mb is
//     serve's and the load generator's, not the set-up miner's.
//
// Set-up runs three times in every run; setup_s is the median.
//
// The streaming and query workloads pin the dataset to the calibration
// seed and permute the stream only locally: mining a window of the
// Figure 4 partition costs up to four times more under one generator
// seed, or one random sample of the partition, than another, which
// would bury any change worth measuring. Their seed draws the arrival
// order and the query sequence instead.
//
// There is no workload of queries beside a folding ingest stream. One
// was tried: requests that meet a fold are an order of magnitude slower
// than those that do not, so its percentiles flipped between the two
// kinds of request from run to run, by more than a third of their
// median over ten runs on a shared two-vCPU virtual machine, whatever
// the batch rate.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric, with tracing off.
// Percentiles are nearest-rank.
//
//   - setup_s: the median of the run's three set-ups.
//   - latency_p50_ms: the median of the workload's unit of work. On
//     mine-paper, one mine's wall time; on ingest-window, a batch's
//     freshness, from when it was due to the first GET /v1/stores
//     answer reporting its generation or a later one, over 90 batches;
//     on query-hot, a request from when it was due to its response,
//     over 18,000 requests.
//   - peak_rss_mb: the process's peak resident memory.
//
// The tails are reported per layer, not gated. On a shared two-vCPU
// virtual machine every latency percentile from p75 up of the
// sub-millisecond queries followed the hypervisor's steal time: over
// six query-hot runs, p90 read 1.13 ms at 3% steal and 1.80 ms at 7%,
// an interquartile range of a quarter of its median, while p50 stayed
// within 4%. A mine-paper run holds four to six mines, too few for any
// percentile above the median to leave ten samples beyond it.
//
// A failed operation — a mine, a fold, a quarantine, a transport error,
// a 5xx — counts in failed, against attempted.
//
// # Load
//
// Requests and batches are sent open loop: each is due at a fixed
// time, whatever the system's speed, over at most nproc keep-alive
// connections for queries, one for POSTs and one for the freshness
// probe. Latency is counted from when a request was due, so a stall is
// charged to every request due during it; how late the generator woke
// is reported as loadgen.late_max_ms. The freshness probe polls GET
// /v1/stores every 2 ms while a due batch is not yet queryable, so
// freshness does not depend on how a generation reaches serve. The
// benchmark calls Daemon.Tick every 10 ms — Run's loop with the poll
// made explicit, so each Tick is timed.
//
// # Per-layer metrics
//
// A separate -trace 1 run reports these instead; a layer a workload
// does not exercise reads 0. Each group names the end-to-end metric it
// should move and where.
//
//   - dataset.generate_s, dataset.build_graph_s, partition.split_s
//     (standalone SplitGraph of both repetitions), partition.temporal_s
//     (Figure4Partition): latency on mine-paper, setup_s elsewhere.
//   - fsg.level1_s … fsg.level5_s (from fsg.Options.Progress, summed
//     over repetitions), fsg.candidates, fsg.frequent, fsg.embeddings,
//     fsg.iso_tests, fsg.frequent_per_candidate, fsg.serial_mine_s (the
//     single-threaded baseline) and engine.speedup: latency on
//     mine-paper, a little freshness, nothing on query-hot.
//   - core.mine_structural_s, core.other_s (core's time after the
//     partition draws outside fsg's levels: the union and the store
//     write): latency on mine-paper.
//   - store.bytes, store.open_s, store.dump_s, store.decode_lite_us,
//     store.decode_full_us, store.rehydrate_ms (open, transactions and
//     every level of every 20th generation): freshness on
//     ingest-window, the support class on query-hot.
//   - faultfs.write_ms, faultfs.sync_ms, faultfs.rename_ms,
//     faultfs.syncdir_ms and faultfs.ops, per fold, from a timing
//     wrapper over faultfs.OS passed as ingest.Options.FS: freshness.
//   - ingest.tick_ms (Ticks that published), ingest.post_ms,
//     ingest.backlog_max, ingest.freshness_p50_ms,
//     ingest.freshness_tail_ms (the highest of p99, p95 and p90 that
//     leaves at least ten samples beyond it, or the maximum when fewer
//     than a hundred batches ran), fsg.remine_s (a fresh mine of the final
//     window, which is also the correctness oracle) and
//     ingest.fold_over_remine (whether the incremental fold still pays
//     at this size): freshness.
//   - serve.remount_ms (around the Remount hook), serve.drain_p99_ms,
//     serve.cache_hit_ratio (from /metrics), serve.<class>.service_p50_ms
//     and serve.<class>.service_p99_ms for the point, batch, support,
//     locations and stores classes (sent to answered): latency on
//     query-hot, freshness on ingest-window.
//   - loadgen.latency_p99_ms (due to answered, every class): query-hot's
//     p99. loadgen.wait_p99_ms (due to sent) and loadgen.late_max_ms
//     only show a run is valid. loadgen.max_rps, on traced query-hot
//     runs: the highest rate at which p99 stays within 25 ms and the
//     client queue does not grow, from a ×1.5 ladder from 600 and a
//     bisection to 5% with 2 s probes.
//   - runtime.alloc_mb, runtime.gc_cycles, runtime.gc_pause_ms over
//     the measured phase: peak_rss_mb and the tails everywhere.
//     runtime.cpu_per_op_ms, the process's CPU time over the measured
//     phase per mine, batch or request: the latencies everywhere.
//   - trace.coverage (the share of root-span time that layer spans
//     cover), trace.overhead_pct (span records taken during the
//     measured phase × the measured cost of one / the phase's wall
//     time) and trace.spans.
//   - dataset.self_s, core.self_s, fsg.self_s, store.self_s,
//     faultfs.self_s, ingest.self_s, serve.self_s and loadgen.self_s:
//     each layer's self time, its spans' durations minus what their
//     child spans cover (the partition draws run inside core's span).
//     The run also prints them as a table, largest first.
//
// Spans are recorded by this package around calls to the layers'
// public functions — dataset, core, fsg's Progress hook, store, the
// faultfs wrapper, the Remount hook, serve over loopback — never from
// inside the program. -trace-out writes them as JSON.
//
// # Correctness gates
//
//   - mine-paper: every mine's store.DumpPatterns is identical, and
//     so is the traced single-threaded mine's; for seeds 20050405 and
//     1 its sha256 equals goldenDumps.
//   - ingest-window: every batch became queryable, no fold failed or
//     was quarantined, and the final generation's dump equals that of a
//     fresh fsg.Mine of the same window.
//   - every workload with serve: between two /metrics scrapes each
//     route's tnd_http_requests_total grew by exactly what the
//     benchmark sent, with no 5xx.
//
// # Comparing runs
//
// -compare prints one row per workload with a verdict per end-to-end
// metric, using BENCHMARK.json's bounds: "gain" needs the new runs to
// win at least nine of ten seed-matched pairs and the medians to differ
// by more than the base runs' interquartile range; "regressed" is a
// median worse by more than the bound; "unresolved" marks a metric
// whose base spread exceeds its bound, unless every new run beats every
// base run. It exits non-zero on a regression.
//
// results/ holds the first two result sets, ten seeds a workload each
// (set-1.json seeds 101–110, set-2.json seeds 201–210), and one traced
// run of each workload (traced.json), all from one two-vCPU VM.
package main
