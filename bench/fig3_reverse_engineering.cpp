// Figure 3 — Reverse-engineering effectiveness: proxy/victim agreement on
// the testing fold, for proxy model in {MLP, LR, DT}, attacker training
// data in {victim-training fold, attacker-training fold}, and victim in
// {baseline HMD, Stochastic-HMD(er=0.1)}.
//
// Both victims are queried through explicit attack::QueryOracles — the
// deterministic baseline behind a DetectorOracle, the stochastic victim
// behind the InProcessOracle (which scores each query through the same
// per-request primitive as the scoring service). That is the same code
// path redteam::NetOracle drives over a socket, so this figure and an
// over-the-wire campaign against shmd-served measure the same attacker.
#include <cstdio>

#include "common.hpp"

#include "attack/oracle.hpp"

namespace {

using namespace shmd;

// Fault-stream anchor for the stochastic victim's oracle; matches
// shmd-served's default --seed so the in-process numbers line up with a
// freshly started daemon.
constexpr std::uint64_t kServiceSeed = 24942;

int run(const bench::BenchConfig& cfg, double er) {
  const trace::Dataset ds = trace::Dataset::build(cfg.dataset);
  const trace::FeatureConfig fc = bench::victim_config(ds);
  const trace::FoldSplit folds = ds.folds(0);

  hmd::BaselineHmd baseline = hmd::make_baseline(ds, folds.victim_training, fc, cfg.train);
  const hmd::StochasticHmd stochastic(baseline.network(), fc, er);

  std::printf("Fig. 3 — reverse-engineering effectiveness (er=%.2f)\n\n", er);
  attack::ReverseEngineer re(ds);
  util::Table table({"proxy", "attacker data", "baseline HMD", "Stochastic-HMD", "drop",
                     "victim queries"});
  for (auto kind : {attack::ProxyKind::kMlp, attack::ProxyKind::kLr, attack::ProxyKind::kDt}) {
    for (const bool use_victim_data : {true, false}) {
      const auto& query_fold =
          use_victim_data ? folds.victim_training : folds.attacker_training;
      attack::ReverseEngineerConfig rc;
      rc.kind = kind;
      rc.proxy_configs = {fc};
      // Fresh oracles per measurement: each run re-anchors its noise
      // stream, so every cell is reproducible in isolation.
      attack::DetectorOracle base_oracle(baseline);
      const double base_eff =
          re.run(base_oracle, query_fold, folds.testing, rc).effectiveness;
      attack::InProcessOracle sto_oracle(stochastic, kServiceSeed);
      const double sto_eff =
          re.run(sto_oracle, query_fold, folds.testing, rc).effectiveness;
      table.add_row({std::string(attack::proxy_kind_name(kind)),
                     use_victim_data ? "victim training" : "attacker training",
                     util::Table::pct(base_eff, 1), util::Table::pct(sto_eff, 1),
                     util::Table::pct(base_eff - sto_eff, 1),
                     std::to_string(sto_oracle.queries_used())});
    }
  }
  bench::emit(table, cfg);
  std::printf("\nPaper shape check: the stochastic victim costs every proxy 8-25 points of\n"
              "effectiveness (paper: MLP 99%%->86/75.5%%, LR 92%%->76/71%%, DT 92%%->70/68%%).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  shmd::util::CliParser cli;
  cli.add_flag("error-rate", "Stochastic-HMD error rate", "0.1");
  const auto cfg = shmd::bench::parse_bench_args(argc, argv, cli);
  if (!cfg) return 0;
  return run(*cfg, cli.get_double("error-rate"));
}
