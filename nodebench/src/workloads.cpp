// The three workloads and the node settings every run uses.

#include "bench.hpp"
#include "vm/exec_context.hpp"

namespace nodebench {

namespace wl = concord::workload;

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = {
      // The paper's Mixed stream at 15% conflict: speculative execution
      // and fork-join replay. 30 blocks keep state roots a minor share.
      {.name = "mixed-small",
       .kind = wl::BenchmarkKind::kMixed,
       .conflict_percent = 15,
       .blocks = 30,
       .offered_tx_per_s = 4000.0},
      // Zipf(0.9) token transfers over 100k accounts: the state is far
      // larger than one block's dirty set, so both stages hash it. Run by
      // name only: BENCHMARK.json does not gate it (see METRICS.md).
      {.name = "token-zipf",
       .zipf = true,
       .accounts = 100'000,
       .skew = 0.9,
       .blocks = 20,
       .offered_tx_per_s = 1200.0},
      // SimpleAuction at 80% conflict (bidPlusOne on shared scalars),
      // replicated to a follower that serves the reader.
      {.name = "auction-replica",
       .kind = wl::BenchmarkKind::kSimpleAuction,
       .conflict_percent = 80,
       .blocks = 30,
       .offered_tx_per_s = 3000.0,
       .follower = true},
  };
  return workloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : all_workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

wl::Fixture make_fixture(const Workload& workload, std::uint64_t seed) {
  if (workload.zipf) {
    wl::ZipfSpec spec;
    spec.scenario = wl::ZipfScenario::kTokenTransfers;
    spec.accounts = workload.accounts;
    spec.skew = workload.skew;
    spec.transactions = workload.blocks * kTxsPerBlock;
    spec.seed = seed;
    return wl::make_zipf_fixture(spec);
  }
  wl::StreamSpec spec;
  spec.kind = workload.kind;
  spec.blocks = workload.blocks;
  spec.txs_per_block = kTxsPerBlock;
  spec.conflict_percent = workload.conflict_percent;
  spec.seed = seed;
  return wl::make_stream_fixture(spec);
}

NodeConfig node_config(double nanos_per_gas) {
  NodeConfig config;
  config.miner.threads = kStageThreads;
  config.validator.threads = kStageThreads;
  config.miner.nanos_per_gas = nanos_per_gas;
  config.validator.nanos_per_gas = nanos_per_gas;
  config.batch.target_txs = kTxsPerBlock;
  config.mempool_capacity = kMempoolBlocks * kTxsPerBlock;
  return config;
}

concord::core::QueryFn balance_scan(std::uint64_t first_account) {
  return [first_account](const concord::vm::World& world, concord::vm::ExecContext& ctx) {
    for (std::uint64_t i = 0; i < kQueryAccounts; ++i) {
      // Each read is metered through `ctx`, so none can be optimized away.
      (void)world.balances().get(ctx, concord::vm::Address::from_u64(first_account + i));
    }
  };
}

}  // namespace nodebench
