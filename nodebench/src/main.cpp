// The node benchmark: drives node::Node (leader, and a follower over
// net::PipeTransport) with one workload, in a saturation phase (closed
// loop) and an open phase (fixed offered rate), and prints every metric
// by name and unit. The last stdout line is one JSON object.
//
//   nodebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run
// that reports per-layer metrics: hooks stamp each block's spans and a
// replay pass times one public call per layer on boundary forks.
// Every run checks its outputs and exits 1 when a check fails.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/cycle_burner.hpp"

namespace nodebench {

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

// Shares of --seconds each phase measures. The streams of the two phases
// alternate through the run, so a host slowdown in one part of it does
// not land on one phase alone.
constexpr double kSaturationShare = 0.50;  // Untraced: the rest is the open phase.
constexpr double kTracedSaturationShare = 0.40;
constexpr double kTracedOpenShare = 0.25;  // Traced: the rest is the replay pass.
constexpr std::size_t kMinReplayBlocks = 3;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "nodebench: %s\nusage: nodebench --workload NAME [--seed N] "
                       "[--seconds S] [--trace 0|1]\nworkloads:", problem.c_str());
  for (const Workload& workload : all_workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(workload.name.size()), workload.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = find_workload(value);
      if (args.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr) usage("--workload is required");
  return args;
}

/// Seed of stream `rep` of a phase: a fresh stream every time, the same
/// sequence of streams for the same --seed.
std::uint64_t stream_seed(std::uint64_t seed, Phase phase, std::uint64_t rep) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (phase == Phase::kOpen ? 1ULL << 32 : 0) + rep;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double per_block(double total, const NodeStats& stats) {
  return stats.blocks > 0 ? total / static_cast<double>(stats.blocks) : 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

/// Everything the streams of one run add up to.
struct Tally {
  std::vector<StreamResult> saturation;  ///< Untraced saturation streams.
  std::vector<StreamResult> traced;      ///< Traced saturation streams.
  std::vector<StreamResult> open;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Peak resident set of the process once its first stream — one
  /// leader (and follower) from construction to teardown — is over. Read
  /// then, not at exit, so the figure does not grow with how many
  /// streams a run happened to fit, nor with allocator fragmentation
  /// accumulated across them.
  double first_stream_rss_mb = 0.0;

  void count(const StreamResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
};

void print_metric(const Metric& m) {
  std::printf("%-36s %14.6g %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
}

void print_json(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A latency beyond every limit (a missed tx) prints as a huge finite
    // number: JSON has no infinity.
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 1e300;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::string samples(std::size_t n, const char* what) {
  return "(n=" + std::to_string(n) + " " + what + ")";
}

/// Median over `streams` of a per-stream value.
template <typename Get>
double median_of(const std::vector<StreamResult>& streams, Get get) {
  std::vector<double> values;
  values.reserve(streams.size());
  for (const StreamResult& r : streams) values.push_back(get(r));
  return median(values);
}

/// Txs accepted on the leader over its wall time, median over streams: a
/// host slowdown must cover half a run's streams to move it.
double stream_tx_per_s(const std::vector<StreamResult>& streams) {
  return median_of(streams, [](const StreamResult& r) {
    return static_cast<double>(r.leader.transactions) * 1e3 / r.leader.wall_ms;
  });
}

std::vector<Metric> end_to_end(const Tally& tally) {
  std::vector<double> setup;
  std::size_t txs = 0;
  for (const StreamResult& r : tally.saturation) setup.push_back(r.setup_s);
  for (const StreamResult& r : tally.open) {
    setup.push_back(r.setup_s);
    txs += r.commit_ms.size();
  }
  // Latency percentiles are taken per open stream, then the median over
  // streams is reported.
  const auto open_pct = [&tally](std::vector<double> StreamResult::*sample, double p) {
    return median_of(tally.open, [&](const StreamResult& r) { return percentile(r.*sample, p); });
  };
  const std::string per_stream =
      "median of per-stream values " + samples(tally.open.size(), "open streams") + " " +
      samples(txs, "txs");
  return {
      {"tx_per_s", stream_tx_per_s(tally.saturation), "tx/s",
       "median " + samples(tally.saturation.size(), "saturation streams")},
      {"commit_p50_ms", open_pct(&StreamResult::commit_ms, 0.50), "ms", per_stream},
      {"commit_p99_ms", open_pct(&StreamResult::commit_ms, 0.99), "ms", per_stream},
      {"visible_p50_ms", open_pct(&StreamResult::visible_ms, 0.50), "ms", per_stream},
      {"visible_p99_ms", open_pct(&StreamResult::visible_ms, 0.99), "ms", per_stream},
      {"setup_s", median(setup), "s", "median " + samples(setup.size(), "stream set-ups")},
      {"peak_rss_mb", tally.first_stream_rss_mb, "MiB",
       "process peak resident set after its first stream"},
  };
}

/// The reader's view, over every stream of the run, plus the load
/// generator's health: how late the open-loop producer submitted and how
/// far the reader's think time drifted. Printed by every run; reported
/// in the JSON of a traced run. Query latency is a few microseconds and
/// moves run to run with the host far more than any bound allows, so it
/// is not gated.
std::vector<Metric> reader_and_generator(const Tally& tally) {
  std::vector<double> query, late, drift;
  for (const StreamResult& r : tally.open) {
    append(query, r.query_us);
    append(drift, r.think_drift_us);
    append(late, r.gen_late_ms);
  }
  return {
      {"query_p50_us", percentile(query, 0.50), "us", samples(query.size(), "queries")},
      {"query_p99_us", percentile(query, 0.99), "us", samples(query.size(), "queries")},
      {"bench.calib_iters_per_us", static_cast<double>(concord::util::iterations_per_microsecond()),
       "1/us", "burner calibration of this process"},
      {"bench.gen_late_p99_ms", percentile(late, 0.99), "ms", samples(late.size(), "submits")},
      {"bench.gen_late_max_ms", percentile(late, 1.0), "ms", samples(late.size(), "submits")},
      {"bench.think_drift_us_p50", percentile(drift, 0.50), "us", samples(drift.size(), "thinks")},
  };
}

bool stamped(Clock::time_point t) { return t != Clock::time_point{}; }

std::vector<Metric> per_layer(const Workload& workload, const Tally& tally,
                              const ReplayResult& replay) {
  const std::vector<StreamResult>& traced = tally.traced;
  const StreamResult& replayed = traced.front();  // The stream the replay pass re-ran.

  // Live per-block spans from the hooks.
  std::vector<double> handoff, accept, propagation;
  for (const StreamResult& r : traced) {
    const Stamps& s = r.stamps;
    for (std::uint64_t n = 1; n <= r.height; ++n) {
      if (stamped(s.mined[n]) && stamped(s.popped[n])) {
        handoff.push_back(ms_between(s.mined[n], s.popped[n]));
      }
      if (stamped(s.popped[n]) && stamped(s.accepted[n])) {
        accept.push_back(ms_between(s.popped[n], s.accepted[n]));
      }
      if (workload.follower && stamped(s.accepted[n]) && stamped(s.follower_accepted[n])) {
        propagation.push_back(ms_between(s.accepted[n], s.follower_accepted[n]));
      }
    }
  }
  if (!workload.follower) propagation = replay.propagation_ms;

  // Replayed layer calls, per block.
  std::vector<double> exec, miner_speedup, validator_replay, validator_speedup;
  for (std::size_t i = 0; i < replay.blocks; ++i) {
    exec.push_back(replay.mine_ms[i] - replay.mine_root_ms[i]);
    miner_speedup.push_back(replay.serial_exec_ms[i] / exec.back());
    validator_replay.push_back(replay.validate_ms[i] - replay.root_ms[i]);
    validator_speedup.push_back((replay.validate_serial_ms[i] - replay.root_ms[i]) /
                                validator_replay.back());
  }

  // trace.unaccounted_ms: block n's wall time on the leader (accepted
  // n-1 to accepted n) less the spans that cover it — the validator's
  // wait for block n (accepted n-1 to popped n) and the replayed
  // validate_parallel call for block n.
  std::vector<double> unaccounted;
  const Stamps& s = replayed.stamps;
  for (std::size_t n = 2; n <= replay.blocks; ++n) {
    if (!stamped(s.accepted[n - 1]) || !stamped(s.popped[n]) || !stamped(s.accepted[n])) continue;
    const double wall = ms_between(s.accepted[n - 1], s.accepted[n]);
    const double wait = ms_between(s.accepted[n - 1], s.popped[n]);
    unaccounted.push_back(wall - wait - replay.validate_ms[n - 1]);
  }

  const double untraced_tps = stream_tx_per_s(tally.saturation);
  const double traced_tps = stream_tx_per_s(traced);

  double txs = 0, attempts = 0, blocks = 0, victims = 0, nacks = 0, requests = 0;
  double ring = 0, lock_table = 0, lock_bytes = 0, pins_expired = 0;
  for (const StreamResult& r : traced) {
    txs += static_cast<double>(r.leader.transactions);
    attempts += static_cast<double>(r.leader.attempts);
    blocks += static_cast<double>(r.leader.blocks);
    victims += static_cast<double>(r.leader.deadlock_victims);
    nacks += static_cast<double>(r.follower.net_nacks_sent);
    requests += static_cast<double>(r.follower.net_requests_sent);
    ring = std::max(ring, static_cast<double>(r.leader.ring_high_water));
    lock_table = std::max(lock_table, static_cast<double>(r.leader.lock_table_high_water));
    lock_bytes = std::max(lock_bytes, static_cast<double>(r.leader.lock_table_memory_high_water));
  }
  for (const StreamResult& r : tally.open) {
    const NodeStats& serving = workload.follower ? r.follower : r.leader;
    pins_expired += static_cast<double>(serving.pins_expired);
  }
  double follower_validate = median_of(traced, [](auto& r) {
    return per_block(r.follower.validate_ms, r.follower);
  });
  if (!workload.follower) {
    follower_validate = per_block(replay.follower.validate_ms, replay.follower);
    nacks = static_cast<double>(replay.follower.net_nacks_sent);
    requests = static_cast<double>(replay.follower.net_requests_sent);
  }

  const std::string live = samples(traced.size(), "traced saturation streams");
  const std::string open = samples(tally.open.size(), "open streams");
  const std::string replayed_blocks = samples(replay.blocks, "replayed blocks");
  return {
      // node
      {"node.mempool_wait_ms",
       median_of(tally.open, [](auto& r) { return per_block(r.leader.mempool_wait_ms, r.leader); }),
       "ms/block", "median " + open},
      {"node.handoff_wait_ms",
       median_of(traced, [](auto& r) { return per_block(r.leader.handoff_wait_ms, r.leader); }),
       "ms/block", "median " + live},
      {"node.validator_stall_ms",
       median_of(traced, [](auto& r) { return per_block(r.leader.validator_stall_ms, r.leader); }),
       "ms/block", "median " + live},
      {"node.ring_high_water", ring, "count", "max " + live},
      {"node.block.handoff_ms_p50", percentile(handoff, 0.5), "ms", samples(handoff.size(), "blocks")},
      {"node.snapshot_ms",
       median_of(traced, [](auto& r) { return per_block(r.leader.snapshot_ms, r.leader); }),
       "ms/block", "median " + live},
      // core miner
      {"core.miner.busy_ms",
       median_of(traced, [](auto& r) { return per_block(r.leader.mine_ms, r.leader); }),
       "ms/block", "median " + live},
      {"core.miner.exec_ms_per_block", median(exec), "ms", "median " + replayed_blocks},
      {"core.miner.attempts", attempts / blocks, "count/block", live},
      {"core.miner.conflict_aborts",
       median_of(traced, [](auto& r) {
         return per_block(static_cast<double>(r.leader.conflict_aborts), r.leader);
       }),
       "count/block", "median " + live},
      {"core.miner.useful_ratio", txs / attempts, "ratio", "txs / attempts, " + live},
      {"core.miner.speedup_vs_serial", median(miner_speedup), "x", "median " + replayed_blocks},
      {"core.miner.root_ms_per_block", median(replay.mine_root_ms), "ms", "median " + replayed_blocks},
      // core validator
      {"core.validator.busy_ms",
       median_of(traced, [](auto& r) { return per_block(r.leader.validate_ms, r.leader); }),
       "ms/block", "median " + live},
      {"core.validator.replay_ms_per_block", median(validator_replay), "ms",
       "median " + replayed_blocks},
      {"core.validator.speedup_vs_serial", median(validator_speedup), "x",
       "median " + replayed_blocks},
      {"node.block.accept_ms_p50", percentile(accept, 0.5), "ms", samples(accept.size(), "blocks")},
      // sched, stm
      {"sched.steals_per_block", median(replay.steals), "count", "median " + replayed_blocks},
      {"stm.lock_table_high_water", lock_table, "count", "max " + live},
      {"stm.lock_table_memory_bytes", lock_bytes, "bytes", "max " + live},
      {"stm.deadlock_victims", victims / blocks, "count/block", live},
      // vm
      {"vm.state_root_ms_per_block", median(replay.root_ms), "ms", "median " + replayed_blocks},
      {"vm.arena.fresh_allocs",
       median_of(traced, [](auto& r) {
         return per_block(static_cast<double>(r.leader.arena.fresh_allocs), r.leader);
       }),
       "count/block", "median " + live},
      {"vm.arena.recycle_hits",
       median_of(traced, [](auto& r) {
         return per_block(static_cast<double>(r.leader.arena.recycle_hits), r.leader);
       }),
       "count/block", "median " + live},
      // graph, chain
      {"graph.critical_path", median(replay.critical_path), "txs", "median " + replayed_blocks},
      {"graph.parallelism", median(replay.parallelism), "x", "median " + replayed_blocks},
      {"chain.schedule_bytes_per_block",
       median_of(traced, [](auto& r) {
         return per_block(static_cast<double>(r.leader.schedule_bytes), r.leader);
       }),
       "bytes", "median " + live},
      // net
      {"net.encode_us_per_block", median(replay.encode_us), "us", "median " + replayed_blocks},
      {"net.decode_us_per_block", median(replay.decode_us), "us", "median " + replayed_blocks},
      {"net.bytes_per_block", median(replay.wire_bytes), "bytes", "median " + replayed_blocks},
      {"net.propagation_ms_p50", percentile(propagation, 0.5), "ms",
       samples(propagation.size(), workload.follower ? "live blocks" : "replayed blocks")},
      {"net.follower.validate_ms", follower_validate, "ms/block",
       workload.follower ? "median " + live : "replay follower"},
      {"net.nacks", nacks, "count", workload.follower ? live : "replay follower"},
      {"net.requests", requests, "count", workload.follower ? live : "replay follower"},
      // query / snapshot ring
      {"query.service_us_p50", percentile(replay.query_us, 0.5), "us",
       samples(replay.query_us.size(), "replayed queries")},
      {"node.queries_served",
       median_of(tally.open, [&workload](auto& r) {
         return static_cast<double>((workload.follower ? r.follower : r.leader).queries_served);
       }),
       "count", "median per stream " + open},
      {"node.pins_expired", pins_expired, "count", open},
      // trace
      {"trace.overhead_pct", (untraced_tps - traced_tps) / untraced_tps * 100.0, "%",
       "traced vs untraced tx_per_s, " + samples(tally.saturation.size(), "untraced") + " " +
           samples(traced.size(), "traced")},
      {"trace.unaccounted_ms", median(unaccounted), "ms", "median " + samples(unaccounted.size(), "blocks")},
  };
}

int run(const Args& args) {
  const Workload& workload = *args.workload;
  const double calib = static_cast<double>(concord::util::iterations_per_microsecond());
  const NodeConfig config = node_config(kItersPerGas * 1e3 / calib);

  std::printf("# nodebench workload=%.*s seed=%llu seconds=%g trace=%d\n",
              static_cast<int>(workload.name.size()), workload.name.data(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%u threads: per node miner pool %u + validator pool %u; 1 producer, "
              "1 reader in the open phase%s\n",
              std::thread::hardware_concurrency(), kStageThreads, kStageThreads,
              workload.follower ? "; follower node (validator pool 2) over a pipe" : "");
  std::printf("# stream=%zu blocks x %zu txs, mempool %zu txs, offered %.0f tx/s, "
              "%.1f iters/gas (calib %.0f it/us -> %.4f ns/gas)\n",
              workload.blocks, kTxsPerBlock, kMempoolBlocks * kTxsPerBlock,
              workload.offered_tx_per_s, kItersPerGas, calib, config.miner.nanos_per_gas);
  std::fflush(stdout);

  const double saturation_s =
      args.seconds * (args.trace ? kTracedSaturationShare : kSaturationShare);
  const double open_s =
      args.seconds * (args.trace ? kTracedOpenShare : 1.0 - kSaturationShare);
  const double replay_s = args.seconds - saturation_s - open_s;

  Tally tally;
  ReplayResult replay;
  double saturation_used = 0.0;
  double open_used = 0.0;
  std::uint64_t saturation_reps = 0;
  std::uint64_t open_reps = 0;
  while (true) {
    const bool saturation_due = saturation_used < saturation_s || tally.saturation.empty() ||
                                (args.trace && tally.traced.empty());
    const bool open_due = open_used < open_s || tally.open.empty();
    if (!saturation_due && !open_due) break;
    // Run the phase that has used the smaller share of its time so far.
    if (saturation_due && (!open_due || saturation_used / saturation_s <= open_used / open_s)) {
      const std::uint64_t rep = saturation_reps++;
      // A traced run alternates untraced and traced streams, so it can
      // report what tracing costs.
      const bool traced = args.trace && rep % 2 == 1;
      const bool keep = traced ? tally.traced.empty() : !args.trace && rep == 0;
      const auto t0 = Clock::now();
      StreamResult r = run_stream(workload, Phase::kSaturation, traced,
                                  stream_seed(args.seed, Phase::kSaturation, rep), config, keep);
      saturation_used += ms_between(t0, Clock::now()) / 1e3;
      if (rep == 0) tally.first_stream_rss_mb = peak_rss_mb();
      tally.count(r);
      if (keep) {
        std::vector<std::string> problems;
        if (args.trace) {
          const auto deadline =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(replay_s));
          replay = replay_chain(r.genesis, r.chain, config, deadline, kMinReplayBlocks,
                                !workload.follower);
          problems = replay.failures;
          tally.attempted += replay.blocks;
        } else {
          problems = check_chain(r.genesis, r.chain, config);
          tally.attempted += r.chain.size() - 1;
        }
        tally.failed += problems.size();
        tally.failures.insert(tally.failures.end(), problems.begin(), problems.end());
        r.chain.clear();
        r.genesis = {};
      }
      (traced ? tally.traced : tally.saturation).push_back(std::move(r));
    } else {
      const std::uint64_t rep = open_reps++;
      const auto t0 = Clock::now();
      StreamResult r = run_stream(workload, Phase::kOpen, args.trace,
                                  stream_seed(args.seed, Phase::kOpen, rep), config, false);
      open_used += ms_between(t0, Clock::now()) / 1e3;
      tally.count(r);
      tally.open.push_back(std::move(r));
    }
  }

  std::vector<Metric> reported =
      args.trace ? per_layer(workload, tally, replay) : end_to_end(tally);
  const std::vector<Metric> reader = reader_and_generator(tally);
  for (const Metric& m : reported) print_metric(m);
  if (args.trace) reported.insert(reported.end(), reader.begin(), reader.end());
  for (const Metric& m : reader) print_metric(m);
  print_metric({"fail_ratio",
                static_cast<double>(tally.failed) / static_cast<double>(tally.attempted), "ratio",
                std::to_string(tally.failed) + " of " + std::to_string(tally.attempted) +
                    " operations"});
  for (const std::string& failure : tally.failures) std::printf("CHECK FAILED: %s\n", failure.c_str());
  print_json(tally, reported);
  return tally.failed == 0 && tally.failures.empty() ? 0 : 1;
}

}  // namespace

}  // namespace nodebench

int main(int argc, char** argv) {
  try {
    return nodebench::run(nodebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nodebench: %s\n", e.what());
    return 1;
  }
}
