// The replay pass of a traced run: re-runs a finished chain block by
// block, timing one public call per layer on fresh COW forks of each
// block's pre-state, so every layer is measured alone and from outside.

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "core/miner.hpp"
#include "core/query.hpp"
#include "core/validator.hpp"
#include "graph/happens_before.hpp"
#include "net/peer.hpp"
#include "net/replication.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace nodebench {

namespace {

using concord::vm::World;

/// Queries timed per replayed block against its published boundary.
constexpr int kQueriesPerBlock = 32;
constexpr auto kFollowerTimeout = std::chrono::seconds(30);

double ms_since(Clock::time_point start) { return ms_between(start, Clock::now()); }

void fail(ReplayResult& result, std::string what) {
  ++result.failed;
  result.failures.push_back(std::move(what));
}

/// Feeds blocks 1..`blocks` of `chain` one at a time to a fresh follower
/// over a pipe, timing announce → follower accept for each.
void replay_follower(const concord::vm::WorldSnapshot& genesis, const std::vector<Block>& chain,
                     std::size_t blocks, const NodeConfig& config, ReplayResult& result) {
  std::vector<Clock::time_point> accepted(blocks + 1);
  std::atomic<std::uint64_t> height{0};
  NodeConfig follower_config = config;
  follower_config.on_block_accepted = [&accepted, &height](const Block& block) {
    if (block.header.number < accepted.size()) accepted[block.header.number] = Clock::now();
    height.store(block.header.number, std::memory_order_release);
  };
  concord::node::Node follower(genesis.materialize(), follower_config);

  auto [follower_end, leader_end] = concord::net::PipeTransport::make_pair();
  concord::net::Peer follower_peer(std::move(follower_end),
                                   concord::net::PeerConfig{.name = "follower"});
  auto peers = std::make_shared<concord::net::PeerSet>();
  peers->add(std::make_shared<concord::net::Peer>(std::move(leader_end),
                                                  concord::net::PeerConfig{.name = "leader"}));
  concord::net::Leader wire(peers, genesis.state_root());
  wire.start();
  std::string session_error;
  {
    std::jthread session([&] {
      try {
        follower.run_follower(follower_peer);
      } catch (const std::exception& e) {
        session_error = e.what();
      }
    });
    for (std::uint64_t n = 1; n <= blocks; ++n) {
      const auto sent = Clock::now();
      wire.announce(chain[n]);
      const auto deadline = sent + kFollowerTimeout;
      while (height.load(std::memory_order_acquire) < n && Clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (height.load(std::memory_order_acquire) < n) {
        fail(result, "replay follower did not accept block " + std::to_string(n));
        break;
      }
      result.propagation_ms.push_back(ms_between(sent, accepted[n]));
    }
    wire.stop();
  }
  if (!session_error.empty()) fail(result, "replay follower session failed: " + session_error);
  result.follower = follower.stats();
  for (std::uint64_t n = 1; n <= std::min<std::uint64_t>(blocks, follower.chain().height()); ++n) {
    if (follower.chain().at(n).hash() != chain[n].hash()) {
      fail(result, "replay follower diverged at block " + std::to_string(n));
    }
  }
}

}  // namespace

std::vector<std::string> check_chain(const concord::vm::WorldSnapshot& genesis,
                                     const std::vector<Block>& chain, const NodeConfig& config) {
  std::unique_ptr<World> world = genesis.materialize();
  concord::core::Validator validator(*world, config.validator);
  for (std::size_t n = 1; n < chain.size(); ++n) {
    // An accepted report includes the replayed root matching the header.
    const concord::core::ValidationReport report = validator.validate_parallel(chain[n]);
    if (!report.ok) {
      return {"validate_parallel rejected block " + std::to_string(n) + ": " +
              std::string(concord::core::to_string(report.reason))};
    }
  }
  return {};
}

ReplayResult replay_chain(const concord::vm::WorldSnapshot& genesis,
                          const std::vector<Block>& chain, const NodeConfig& config,
                          Clock::time_point deadline, std::size_t min_blocks,
                          bool with_follower) {
  ReplayResult result;
  std::unique_ptr<World> pre = genesis.materialize();  // Post-state of block n-1.
  std::unique_ptr<World> mining = pre->fork();
  std::unique_ptr<World> validating = pre->fork();
  concord::core::Miner miner(*mining, config.miner);
  concord::core::Validator validator(*validating, config.validator);

  // Rebinds a stage to a fresh fork of the pre-state, replacing the fork
  // it held before.
  const auto rebind = [&pre](auto& stage, std::unique_ptr<World>& slot) {
    std::unique_ptr<World> fresh = pre->fork();
    stage.resume_from(*fresh);
    slot = std::move(fresh);
  };

  for (std::size_t n = 1; n < chain.size(); ++n) {
    if (n > min_blocks && Clock::now() >= deadline) break;
    const Block& block = chain[n];
    const Block& parent = chain[n - 1];

    // core::Miner — Algorithm 1 on the block's txs, then the serial baseline.
    rebind(miner, mining);
    auto t = Clock::now();
    (void)miner.mine(block.transactions, parent);
    result.mine_ms.push_back(ms_since(t));
    result.mine_root_ms.push_back(miner.last_stats().state_root_ms);
    rebind(miner, mining);
    t = Clock::now();
    (void)miner.execute_serial_baseline(block.transactions);
    result.serial_exec_ms.push_back(ms_since(t));

    // core::Validator — fork-join replay against the published schedule,
    // then the serial re-execution baseline.
    std::unique_ptr<World> post = pre->fork();
    validator.resume_from(*post);
    t = Clock::now();
    const concord::core::ValidationReport report = validator.validate_parallel(block);
    result.validate_ms.push_back(ms_since(t));
    result.steals.push_back(static_cast<double>(report.steals));
    if (!report.ok) {
      fail(result, "validate_parallel rejected block " + std::to_string(n) + ": " +
                       std::string(concord::core::to_string(report.reason)));
      break;
    }
    // vm — the O(state) root hash, on the validated post-state.
    t = Clock::now();
    const concord::util::Hash256 root = post->state_root();
    result.root_ms.push_back(ms_since(t));
    if (root != block.header.state_root) {
      fail(result, "replayed root differs from the header at block " + std::to_string(n));
      break;
    }
    rebind(validator, validating);
    t = Clock::now();
    const concord::core::ValidationReport serial = validator.validate_serial(block);
    result.validate_serial_ms.push_back(ms_since(t));
    if (!serial.ok) fail(result, "validate_serial rejected block " + std::to_string(n));
    pre = std::move(post);

    // net — one BlockAnnounce through the wire codec.
    const concord::net::Message announce{concord::net::BlockAnnounce{block}};
    t = Clock::now();
    const std::vector<std::uint8_t> payload = concord::net::encode_message(announce);
    result.encode_us.push_back(ms_since(t) * 1e3);
    t = Clock::now();
    const concord::net::Message decoded = concord::net::decode_message(payload);
    result.decode_us.push_back(ms_since(t) * 1e3);
    result.wire_bytes.push_back(static_cast<double>(payload.size()));
    if (!(decoded == announce)) fail(result, "wire round trip changed block " + std::to_string(n));

    // graph — the published schedule's shape.
    const concord::graph::ScheduleMetrics shape = concord::graph::compute_metrics(
        block.schedule.to_graph(block.transactions.size()));
    result.critical_path.push_back(static_cast<double>(shape.critical_path));
    result.parallelism.push_back(shape.parallelism);

    // core::run_query on this block's published boundary.
    const concord::vm::WorldSnapshot boundary(*pre, root);
    for (int q = 0; q < kQueriesPerBlock; ++q) {
      t = Clock::now();
      const concord::core::QueryOutcome outcome = concord::core::run_query(
          boundary, config.query, balance_scan(static_cast<std::uint64_t>(q) * kQueryAccounts));
      result.query_us.push_back(ms_since(t) * 1e3);
      if (outcome.status != concord::core::QueryStatus::kOk) {
        fail(result, "replayed query not kOk at block " + std::to_string(n));
      }
    }
    result.blocks = n;
  }

  if (with_follower && result.blocks > 0) {
    replay_follower(genesis, chain, result.blocks, config, result);
  }
  return result;
}

}  // namespace nodebench
