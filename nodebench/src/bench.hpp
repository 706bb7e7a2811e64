#pragma once

// Shared pieces of the node benchmark: the workload definitions, the
// node settings every run uses, one stream's result, and the small
// statistics helpers the report is built from.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "chain/block.hpp"
#include "node/node.hpp"
#include "vm/world.hpp"
#include "workload/workload.hpp"

namespace nodebench {

using Clock = std::chrono::steady_clock;
using concord::chain::Block;
using concord::node::NodeConfig;
using concord::node::NodeStats;

// The four settings that differ from NodeConfig's defaults.
inline constexpr unsigned kStageThreads = 2;  ///< Miner pool and validator pool, each.
inline constexpr std::size_t kTxsPerBlock = 200;
inline constexpr std::size_t kMempoolBlocks = 4;
/// Synthetic work per gas unit, in burner iterations. The run converts it
/// to nanos_per_gas through this process's calibration, so every run
/// burns the same work whatever the calibration reads.
inline constexpr double kItersPerGas = 4.0;

/// The reader: a closed loop of 64-account balance scans with a fixed
/// think time between a reply and the next query.
inline constexpr std::size_t kQueryAccounts = 64;
inline constexpr auto kThinkTime = std::chrono::microseconds(250);

/// A failed or refused operation counts as beyond any latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

enum class Phase { kSaturation, kOpen };

/// One workload. The stream length is part of the definition: the
/// stream fixtures provision genesis state for every tx of the stream,
/// so a longer stream would be a larger state. Longer runs repeat fresh
/// streams instead.
struct Workload {
  std::string_view name;
  /// Token transfers over `accounts` genesis accounts with Zipf(`skew`)
  /// senders and recipients; otherwise a paper stream of `kind`.
  bool zipf = false;
  concord::workload::BenchmarkKind kind = concord::workload::BenchmarkKind::kMixed;
  unsigned conflict_percent = 0;
  std::size_t accounts = 0;
  double skew = 0.0;
  std::size_t blocks = 0;         ///< Blocks per stream.
  /// Open-loop offered load. A constant of the workload, never derived
  /// from a measured capacity, so both sides of an A/B run see the same
  /// load.
  double offered_tx_per_s = 0.0;
  /// A follower over net::PipeTransport serves the reader. Without one
  /// the leader serves it.
  bool follower = false;
};

[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] const std::vector<Workload>& all_workloads();

/// The genesis world and the tx stream of one fresh stream of `workload`.
[[nodiscard]] concord::workload::Fixture make_fixture(const Workload& workload,
                                                      std::uint64_t seed);

/// NodeConfig defaults plus the benchmark's four settings.
[[nodiscard]] NodeConfig node_config(double nanos_per_gas);

/// Per-block wall-clock stamps from the node hooks, indexed by block
/// number. An unset stamp is Clock::time_point{}.
struct Stamps {
  std::vector<Clock::time_point> mined;              ///< post_mine_hook (traced only).
  std::vector<Clock::time_point> popped;             ///< pre_validate_hook (traced only).
  std::vector<Clock::time_point> accepted;           ///< Leader on_block_accepted.
  std::vector<Clock::time_point> follower_accepted;  ///< Follower on_block_accepted.
};

struct StreamResult {
  double setup_s = 0.0;
  NodeStats leader;
  NodeStats follower;     ///< Zero unless the workload has a follower.

  // Open phase: per submitted tx, due time to leader accept and to the
  // serving node's accept (kMissed for a tx absent from the chain).
  std::vector<double> commit_ms;
  std::vector<double> visible_ms;
  std::vector<double> gen_late_ms;  ///< Submit time minus due time.

  std::vector<double> query_us;        ///< Each query, timed around the call.
  std::vector<double> think_drift_us;  ///< Actual think time minus kThinkTime.

  Stamps stamps;
  std::uint64_t height = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< One line per failed check.

  /// The leader's chain and genesis, kept only when asked for, so a
  /// replay can re-run the blocks after the nodes are gone.
  std::vector<Block> chain;
  concord::vm::WorldSnapshot genesis;
};

/// Runs one fresh stream of `workload` through a leader (and follower)
/// built for it, checks its outputs, and tears everything down.
[[nodiscard]] StreamResult run_stream(const Workload& workload, Phase phase, bool traced,
                                      std::uint64_t seed, const NodeConfig& config,
                                      bool keep_chain);

/// Per-block costs of single layers, timed by calling each layer's
/// public entry point on boundary forks of a finished chain.
struct ReplayResult {
  std::size_t blocks = 0;
  std::vector<double> mine_ms, mine_root_ms, serial_exec_ms;
  std::vector<double> validate_ms, validate_serial_ms, root_ms;
  std::vector<double> steals;
  std::vector<double> encode_us, decode_us, wire_bytes;
  std::vector<double> critical_path, parallelism;
  std::vector<double> query_us;
  // A fresh follower fed the replayed blocks over a pipe (only when the
  // caller asks; the live follower covers workloads that have one).
  std::vector<double> propagation_ms;
  NodeStats follower;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Replays `chain` (blocks 1..) from `genesis` until `deadline`, at
/// least `min_blocks` blocks. validate_parallel must accept every block
/// with a root equal to the header; anything else is a failure.
[[nodiscard]] ReplayResult replay_chain(const concord::vm::WorldSnapshot& genesis,
                                        const std::vector<Block>& chain,
                                        const NodeConfig& config, Clock::time_point deadline,
                                        std::size_t min_blocks, bool with_follower);

/// The output check of an untraced run: validate_parallel on a fresh
/// validator must accept every block of `chain` with a root equal to
/// its header. Returns one line per failure.
[[nodiscard]] std::vector<std::string> check_chain(const concord::vm::WorldSnapshot& genesis,
                                                   const std::vector<Block>& chain,
                                                   const NodeConfig& config);

/// The reader's query: a balance scan over kQueryAccounts accounts.
[[nodiscard]] concord::core::QueryFn balance_scan(std::uint64_t first_account);

// ---- statistics --------------------------------------------------------

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank percentile, p in (0, 1]. NaN for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

inline void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace nodebench
