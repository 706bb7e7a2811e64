// One stream: a fresh genesis and tx stream, a leader (and a follower
// over net::PipeTransport) built for it, one producer thread (plus one
// reader thread in the open phase of a follower or traced stream), then
// the output checks.

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "net/peer.hpp"
#include "net/replication.hpp"
#include "net/transport.hpp"

namespace nodebench {

namespace {

using concord::chain::Transaction;
using concord::util::Hash256;

/// How long a finished leader waits for its follower to reach its head.
constexpr auto kCatchUpTimeout = std::chrono::seconds(60);

void stamp(std::vector<Clock::time_point>& slots, std::uint64_t number) {
  if (number < slots.size()) slots[number] = Clock::now();
}

/// The reader: queries `serving` back to back with kThinkTime between a
/// reply and the next query, until asked to stop.
void read_loop(const std::stop_token& stop, const concord::node::Node& serving,
               StreamResult& out, std::uint64_t& queries, std::uint64_t& failed) {
  std::uint64_t account = 0;
  while (!stop.stop_requested()) {
    const auto t0 = Clock::now();
    bool ok = false;
    try {
      ok = serving.query_latest(balance_scan(account)).status == concord::core::QueryStatus::kOk;
    } catch (const std::exception&) {
      ok = false;  // SnapshotEvicted, or any other error the call raised.
    }
    const auto t1 = Clock::now();
    out.query_us.push_back(ms_between(t0, t1) * 1e3);
    ++queries;
    if (!ok) ++failed;
    account += kQueryAccounts;
    std::this_thread::sleep_for(kThinkTime);
    const double slept_us = ms_between(t1, Clock::now()) * 1e3;
    out.think_drift_us.push_back(slept_us - static_cast<double>(kThinkTime.count()));
  }
}

struct HashKey {
  std::size_t operator()(const Hash256& h) const noexcept { return h.prefix64(); }
};

/// Checks that every submitted tx is on the chain exactly once and
/// returns, per submitted tx, the number of the block that holds it (0
/// when it is missing). Identical txs (a double vote) are matched to
/// submissions in order.
std::vector<std::uint64_t> locate_txs(const std::vector<Transaction>& stream,
                                      const concord::chain::Blockchain& chain,
                                      StreamResult& result) {
  std::unordered_map<Hash256, std::vector<std::size_t>, HashKey> by_hash;
  by_hash.reserve(stream.size());
  for (std::size_t i = stream.size(); i-- > 0;) by_hash[stream[i].hash()].push_back(i);

  std::vector<std::uint64_t> block_of(stream.size(), 0);
  std::uint64_t strangers = 0;
  for (std::uint64_t n = 1; n <= chain.height(); ++n) {
    for (const Transaction& tx : chain.at(n).transactions) {
      auto it = by_hash.find(tx.hash());
      if (it == by_hash.end() || it->second.empty()) {
        ++strangers;  // Not submitted, or on the chain more often than submitted.
        continue;
      }
      block_of[it->second.back()] = n;
      it->second.pop_back();
    }
  }
  std::uint64_t missing = 0;
  for (const std::uint64_t n : block_of) missing += n == 0 ? 1 : 0;
  if (missing + strangers > 0) {
    result.failed += missing + strangers;
    result.failures.push_back(std::to_string(missing) + " submitted txs missing from the chain, " +
                              std::to_string(strangers) + " extra or duplicated txs on it");
  }
  return block_of;
}

}  // namespace

StreamResult run_stream(const Workload& workload, Phase phase, bool traced, std::uint64_t seed,
                        const NodeConfig& config, bool keep_chain) {
  StreamResult result;
  const auto t_setup = Clock::now();

  concord::workload::Fixture fixture = make_fixture(workload, seed);
  const std::vector<Transaction> stream = std::move(fixture.transactions);
  std::unique_ptr<concord::vm::World> follower_world;
  if (workload.follower) follower_world = make_fixture(workload, seed).world;

  Stamps& stamps = result.stamps;
  const std::size_t slots = workload.blocks + 2;
  stamps.accepted.assign(slots, {});
  stamps.follower_accepted.assign(slots, {});
  if (traced) {
    stamps.mined.assign(slots, {});
    stamps.popped.assign(slots, {});
  }

  std::unique_ptr<concord::net::Leader> wire;
  NodeConfig leader_config = config;
  leader_config.on_block_accepted = [&stamps, &wire](const Block& block) {
    stamp(stamps.accepted, block.header.number);
    if (wire) wire->announce(block);
  };
  if (traced) {
    leader_config.post_mine_hook = [&stamps](Block& block) {
      stamp(stamps.mined, block.header.number);
    };
    leader_config.pre_validate_hook = [&stamps](const Block& block) {
      stamp(stamps.popped, block.header.number);
    };
  }
  auto leader = std::make_unique<concord::node::Node>(std::move(fixture.world), leader_config);

  std::atomic<std::uint64_t> follower_height{0};
  std::unique_ptr<concord::net::Peer> follower_peer;
  std::unique_ptr<concord::node::Node> follower;
  if (workload.follower) {
    auto [follower_end, leader_end] = concord::net::PipeTransport::make_pair();
    follower_peer = std::make_unique<concord::net::Peer>(
        std::move(follower_end), concord::net::PeerConfig{.name = "follower"});
    auto peers = std::make_shared<concord::net::PeerSet>();
    peers->add(std::make_shared<concord::net::Peer>(std::move(leader_end),
                                                    concord::net::PeerConfig{.name = "leader"}));
    wire = std::make_unique<concord::net::Leader>(peers,
                                                  leader->genesis_snapshot().state_root());
    NodeConfig follower_config = config;
    follower_config.on_block_accepted = [&stamps, &follower_height](const Block& block) {
      stamp(stamps.follower_accepted, block.header.number);
      follower_height.store(block.header.number, std::memory_order_release);
    };
    follower = std::make_unique<concord::node::Node>(std::move(follower_world), follower_config);
  }
  const concord::node::Node& serving = follower ? *follower : *leader;
  result.setup_s = ms_between(t_setup, Clock::now()) / 1e3;

  // ---- run --------------------------------------------------------------
  std::uint64_t queries = 0;
  std::uint64_t failed_queries = 0;
  std::uint64_t refused = 0;
  std::string follower_error;
  std::vector<Clock::time_point> due;
  {
    if (wire) wire->start();
    std::jthread follower_thread;
    if (follower) {
      follower_thread = std::jthread([&follower, &follower_peer, &follower_error] {
        try {
          follower->run_follower(*follower_peer);
        } catch (const std::exception& e) {
          follower_error = e.what();
        }
      });
    }
    // Declared after the follower thread so that, on every exit path, the
    // session is closed before that thread is joined.
    struct CloseWire {
      concord::net::Leader* wire;
      ~CloseWire() {
        if (wire != nullptr) wire->stop();
      }
    } close_wire{wire.get()};
    // The reader rides along only at the offered rate: at saturation the
    // node has no core to spare, and its preemptions would be measured
    // as pipeline throughput. Untraced, it queries only a follower; a
    // traced run also sends it to a lone leader, so that every workload
    // reports the read path's per-layer metrics.
    std::jthread reader;
    if (phase == Phase::kOpen && (follower || traced)) {
      reader = std::jthread([&](const std::stop_token& stop) {
        read_loop(stop, serving, result, queries, failed_queries);
      });
    }

    concord::node::Mempool& mempool = leader->mempool();
    std::jthread producer;
    if (phase == Phase::kSaturation) {
      producer = std::jthread([&] {
        refused = stream.size() - mempool.submit_many(stream);
        mempool.close();
      });
    } else {
      due.resize(stream.size());
      const std::chrono::duration<double> interval(1.0 / workload.offered_tx_per_s);
      const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        due[i] = start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(i));
      }
      result.gen_late_ms.resize(stream.size());
      producer = std::jthread([&] {
        for (std::size_t i = 0; i < stream.size(); ++i) {
          Clock::time_point now = Clock::now();
          if (now < due[i]) {
            std::this_thread::sleep_until(due[i]);
            now = Clock::now();
          }
          result.gen_late_ms[i] = ms_between(due[i], now);
          if (!mempool.submit(stream[i])) ++refused;
        }
        mempool.close();
      });
    }

    leader->run();
    producer.join();
    result.height = leader->chain().height();
    if (follower) {
      const auto deadline = Clock::now() + kCatchUpTimeout;
      while (follower_height.load(std::memory_order_acquire) < result.height &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    reader.request_stop();
  }  // Stops the wire, joins reader and follower.

  // ---- checks -------------------------------------------------------------
  const NodeStats& stats = leader->stats();
  result.leader = stats;
  result.attempted = stream.size() + queries + result.height;
  if (!leader->ok()) {
    result.failures.push_back("leader rejected a block: " +
                              std::string(concord::core::to_string(leader->failure().reason)));
  }
  result.failed += stats.rejected_blocks;
  if (refused > 0) result.failures.push_back(std::to_string(refused) + " txs refused");
  if (failed_queries > 0) {
    result.failed += failed_queries;
    result.failures.push_back(std::to_string(failed_queries) + " queries not kOk or evicted");
  }
  const std::vector<std::uint64_t> block_of = locate_txs(stream, leader->chain(), result);

  if (follower) {
    result.follower = follower->stats();
    result.attempted += result.height;
    std::uint64_t diverged = 0;
    const auto& theirs = follower->chain();
    for (std::uint64_t n = 1; n <= result.height; ++n) {
      if (n > theirs.height() || theirs.at(n).hash() != leader->chain().at(n).hash()) ++diverged;
    }
    // Every refusal is Nacked; a rejection whose Nack could not be sent
    // still counts as a rejected block.
    const std::uint64_t refusals =
        std::max(result.follower.rejected_blocks, result.follower.net_nacks_sent);
    if (!follower_error.empty()) {
      ++result.failed;
      result.failures.push_back("follower session failed: " + follower_error);
    }
    if (diverged + refusals > 0 || !follower->ok()) {
      result.failed += diverged + refusals;
      result.failures.push_back("follower: " + std::to_string(diverged) +
                                " heights differ from the leader, " + std::to_string(refusals) +
                                " blocks rejected or Nacked");
    }
  }

  if (phase == Phase::kOpen) {
    const auto& visible = follower ? stamps.follower_accepted : stamps.accepted;
    result.commit_ms.reserve(stream.size());
    result.visible_ms.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint64_t n = block_of[i];
      const bool committed = n != 0 && stamps.accepted[n] != Clock::time_point{};
      const bool shown = n != 0 && visible[n] != Clock::time_point{};
      result.commit_ms.push_back(committed ? ms_between(due[i], stamps.accepted[n]) : kMissed);
      result.visible_ms.push_back(shown ? ms_between(due[i], visible[n]) : kMissed);
    }
  }

  if (keep_chain) {
    const auto& chain = leader->chain();
    result.chain.reserve(chain.size());
    for (std::uint64_t n = 0; n <= chain.height(); ++n) result.chain.push_back(chain.at(n));
    result.genesis = leader->genesis_snapshot();
  }
  return result;
}

}  // namespace nodebench
