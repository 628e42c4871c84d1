// Tests for src/redteam/: the wire-backed oracle, the query-clock epoch
// roller, the budgeted campaign driver, and the fleet model.
//
// The load-bearing property is cross-transport bit parity: a campaign
// through attack::InProcessOracle and the SAME campaign through
// redteam::NetOracle against a freshly started NetServer (same service
// seed) must observe identical decisions — identical proxy training
// sets, identical transfer counts, equal FNV-1a decision hashes — with
// or without the defender rolling epochs underneath. The RedTeam suite
// runs under TSan in CI like the rest of the serving stack.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/reverse_engineer.hpp"
#include "attack/transferability.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "redteam/campaign.hpp"
#include "redteam/fleet.hpp"
#include "redteam/net_oracle.hpp"
#include "serve/scoring_service.hpp"
#include "trace/dataset.hpp"

namespace shmd::redteam {
namespace {

constexpr std::uint64_t kServiceSeed = 4242;
constexpr double kEr = 0.08;

const trace::Dataset& tiny_dataset() {
  static const trace::Dataset ds = [] {
    trace::DatasetConfig cfg;
    cfg.corpus.n_malware = 24;
    cfg.corpus.n_benign = 9;
    cfg.trace_length = 8192;
    return trace::Dataset::build(cfg);
  }();
  return ds;
}

trace::FeatureConfig victim_fc() {
  return {trace::FeatureView::kInsnCategory, tiny_dataset().config().periods.front()};
}

hmd::StochasticHmd make_victim() {
  return hmd::StochasticHmd(served_reference_network(kServiceSeed), victim_fc(), kEr);
}

/// A live decision-only server wrapping `victim`'s network at `er`, plus
/// a connected client — everything a NetOracle needs, torn down in order.
struct ServedVictim {
  explicit ServedVictim(double er, std::uint64_t seed = kServiceSeed) {
    serve::ServeConfig config;
    config.num_workers = 2;
    config.seed = seed;
    service.emplace(serve::make_epoch(hmd::StochasticHmd(served_reference_network(kServiceSeed),
                                                         victim_fc(), er)),
                    config);
    net::NetServerConfig net_config;
    net_config.allow_raw_scores = false;
    server.emplace(*service, net_config);
    path = "/tmp/shmd_redteam_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
    const util::Endpoint ep =
        server->add_listener(util::parse_endpoint("unix:" + path), /*trusted=*/false);
    server->start();
    client.connect(ep);
  }
  ~ServedVictim() {
    client.close();
    server->stop();
    service->close();
  }

  NetOracle oracle(std::size_t pipeline_depth = 8) {
    NetOracleConfig cfg;
    cfg.features = victim_fc();
    cfg.recv_timeout = std::chrono::milliseconds(10000);
    cfg.pipeline_depth = pipeline_depth;
    return NetOracle(client, cfg);
  }

  static inline int counter = 0;
  std::optional<serve::ScoringService> service;
  std::optional<net::NetServer> server;
  net::NetClient client;
  std::string path;
};

CampaignConfig small_campaign(std::uint64_t period = 0, std::uint64_t budget = 0) {
  CampaignConfig cfg;
  cfg.re.proxy_configs = {victim_fc()};
  cfg.query_budget = budget;
  cfg.epoch_period_queries = period;
  return cfg;
}

// ---------------------------------------------------------------- parity

TEST(RedTeam, ObservedLabelsIdenticalAcrossTransports) {
  // Stage-level parity: the proxy TRAINING SET an attacker assembles is
  // byte-identical whether the victim is queried in-process or over the
  // wire — same features, same labels, same order.
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  const attack::ReverseEngineer re(ds);
  const std::vector<trace::FeatureConfig> configs = {victim_fc()};

  const hmd::StochasticHmd victim = make_victim();
  attack::InProcessOracle inproc(victim, kServiceSeed);
  const std::vector<nn::TrainSample> local =
      re.query_victim(inproc, folds.attacker_training, configs);

  ServedVictim served(kEr);
  NetOracle wire = served.oracle();
  const std::vector<nn::TrainSample> remote =
      re.query_victim(wire, folds.attacker_training, configs);

  ASSERT_EQ(local.size(), remote.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(local[i].x, remote[i].x) << i;
    EXPECT_EQ(local[i].y, remote[i].y) << i;
  }
  EXPECT_EQ(inproc.decision_hash(), wire.decision_hash());
  EXPECT_EQ(inproc.queries_used(), wire.queries_used());
}

TEST(RedTeam, CampaignBitIdenticalAcrossTransports) {
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  std::vector<std::size_t> targets;
  for (const std::size_t i : folds.testing) {
    if (ds.samples()[i].malware() && targets.size() < 4) targets.push_back(i);
  }
  const CampaignConfig cfg = small_campaign();
  const Campaign campaign(ds, cfg);

  attack::InProcessOracle inproc(make_victim(), kServiceSeed);
  const CampaignResult local =
      campaign.run(inproc, nullptr, folds.attacker_training, folds.testing, targets);

  ServedVictim served(kEr);
  NetOracle wire_oracle = served.oracle();
  const CampaignResult remote =
      campaign.run(wire_oracle, nullptr, folds.attacker_training, folds.testing, targets);

  EXPECT_EQ(local.decision_hash, remote.decision_hash);
  EXPECT_EQ(local.queries_used, remote.queries_used);
  EXPECT_EQ(local.train_programs, remote.train_programs);
  EXPECT_EQ(local.re_effectiveness, remote.re_effectiveness);
  EXPECT_EQ(local.transfer.proxy_evaded, remote.transfer.proxy_evaded);
  EXPECT_EQ(local.transfer.transferred, remote.transfer.transferred);
  // The wire leg really was decision-only and fully accounted.
  EXPECT_EQ(served.service->stats().verdict_queries, remote.queries_used);
}

TEST(RedTeam, CampaignBitIdenticalWhileEpochsRoll) {
  // The moving-target case: the defender re-rolls the operating point
  // every 7 queries on BOTH transports. Query-count pacing must keep the
  // two runs in lockstep — same rolls at the same sequence numbers, same
  // epoch ids on every reply, equal hashes.
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  std::vector<std::size_t> targets;
  for (const std::size_t i : folds.testing) {
    if (ds.samples()[i].malware() && targets.size() < 4) targets.push_back(i);
  }
  const std::vector<double> schedule = {kEr * 0.5, kEr * 1.5, kEr};
  const CampaignConfig cfg = small_campaign(/*period=*/7);
  const Campaign campaign(ds, cfg);

  const hmd::StochasticHmd victim = make_victim();
  attack::InProcessOracle inproc(victim, kServiceSeed);
  InProcessEpochController local_ctl(inproc, schedule);
  const CampaignResult local =
      campaign.run(inproc, &local_ctl, folds.attacker_training, folds.testing, targets);

  ServedVictim served(kEr);
  NetOracle wire_oracle = served.oracle();
  ServiceEpochController remote_ctl(*served.service, served_reference_network(kServiceSeed),
                                    victim_fc(), schedule);
  const CampaignResult remote =
      campaign.run(wire_oracle, &remote_ctl, folds.attacker_training, folds.testing, targets);

  EXPECT_GT(local.epochs_rolled, 0u);
  EXPECT_EQ(local.epochs_rolled, remote.epochs_rolled);
  EXPECT_EQ(local.decision_hash, remote.decision_hash);
  EXPECT_EQ(local.transfer.transferred, remote.transfer.transferred);
}

TEST(RedTeam, MalformedQuerySpendsItsSeqInProcessAsInTheService) {
  // The service stamps a seq at admission and fails a malformed request
  // without giving the seq back. The in-process oracle must spend it too,
  // or every later reply is one stream behind the daemon. er = 0.5 makes
  // the decisions noisy enough that an off-by-one stream shows.
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  const hmd::StochasticHmd victim(served_reference_network(kServiceSeed), victim_fc(), 0.5);
  trace::FeatureSet malformed;
  malformed.put(victim_fc(), {{0.5, 0.5}});  // narrower than the network input

  attack::InProcessOracle inproc(victim, kServiceSeed);
  EXPECT_THROW((void)inproc.query(malformed), std::invalid_argument);

  serve::ServeConfig config;
  config.num_workers = 2;
  config.seed = kServiceSeed;
  serve::ScoringService service(serve::make_epoch(victim), config);
  serve::ScoreTicket ticket;
  ASSERT_EQ(service.submit(malformed, ticket), serve::SubmitStatus::kAccepted);
  ticket.wait();
  EXPECT_EQ(ticket.outcome(), serve::RequestOutcome::kFailed);

  for (std::size_t k = 0; k < folds.testing.size(); ++k) {
    const trace::FeatureSet& features = ds.samples()[folds.testing[k]].features;
    const attack::OracleReply reply = inproc.query(features);
    ASSERT_EQ(service.submit(features, ticket), serve::SubmitStatus::kAccepted);
    ticket.wait();
    ASSERT_EQ(ticket.outcome(), serve::RequestOutcome::kScored);
    std::vector<bool> served;
    for (const double score : ticket.scores()) served.push_back(score >= ticket.threshold());
    EXPECT_EQ(reply.decisions, served) << "query " << k;
    EXPECT_EQ(reply.verdict, ticket.verdict()) << "query " << k;
  }
}

TEST(RedTeam, NetOracleRepliesIndependentOfPipelineDepth) {
  // Reply reordering: depth-8 pipelining races 2 workers, yet the replies
  // must come back keyed to their requests — the observed sequence equals
  // the depth-1 (strictly serial) run against an identically seeded
  // fresh server.
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  const attack::ReverseEngineer re(ds);
  const std::vector<trace::FeatureConfig> configs = {victim_fc()};

  std::optional<std::uint64_t> serial_hash;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{8}}) {
    ServedVictim served(kEr);
    NetOracle oracle = served.oracle(depth);
    (void)re.query_victim(oracle, folds.attacker_training, configs);
    if (!serial_hash) {
      serial_hash = oracle.decision_hash();
    } else {
      EXPECT_EQ(oracle.decision_hash(), *serial_hash);
    }
  }
}

// ------------------------------------------------------- rolling & budget

TEST(RedTeam, RollingOracleRollsOnTheQueryClock) {
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  const hmd::StochasticHmd victim = make_victim();
  attack::InProcessOracle inner(victim, kServiceSeed);
  InProcessEpochController controller(inner, {kEr * 0.5, kEr});
  RollingOracle rolling(inner, &controller, /*period=*/4);

  std::vector<const trace::FeatureSet*> batch;
  for (std::size_t i = 0; i < 10; ++i) {  // cycle the fold: only the count matters
    const std::size_t idx = folds.testing[i % folds.testing.size()];
    batch.push_back(&ds.samples()[idx].features);
  }
  ASSERT_EQ(batch.size(), 10u);
  const std::vector<attack::OracleReply> replies = rolling.query_many(batch);
  // Queries 1-4 answer on epoch 1, 5-8 on epoch 2, 9-10 on epoch 3: the
  // roll lands BETWEEN completed reply batches, exactly as over the wire.
  EXPECT_EQ(rolling.rolls(), 2u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].epoch_id, 1 + i / 4) << i;
  }
  EXPECT_EQ(rolling.queries_used(), 10u);
}

TEST(RedTeam, OracleBudgetIsChargedUpFrontAndEnforced) {
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  const hmd::StochasticHmd victim = make_victim();
  attack::InProcessOracle oracle(victim, kServiceSeed);
  oracle.set_budget(3);

  std::vector<const trace::FeatureSet*> batch;
  for (std::size_t i = 0; i < 4; ++i) {
    batch.push_back(&ds.samples()[folds.testing[i]].features);
  }
  // A 4-query batch against a 3-query budget: refused whole, up front —
  // no partial spend, no partial victim contact.
  EXPECT_THROW((void)oracle.query_many(batch), attack::OracleBudgetExhausted);
  EXPECT_EQ(oracle.queries_used(), 0u);
  batch.pop_back();
  EXPECT_EQ(oracle.query_many(batch).size(), 3u);
  EXPECT_EQ(oracle.remaining(), 0u);
  EXPECT_THROW((void)oracle.query(*batch[0]), attack::OracleBudgetExhausted);
}

TEST(RedTeam, CampaignBudgetTruncatesTheLabelStage) {
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  std::vector<std::size_t> targets;
  for (const std::size_t i : folds.testing) {
    if (ds.samples()[i].malware() && targets.size() < 3) targets.push_back(i);
  }
  const std::uint64_t reserved = folds.testing.size() + targets.size();

  // Budget for the reserved measurements plus exactly 2 labeled programs.
  attack::InProcessOracle oracle(make_victim(), kServiceSeed);
  const Campaign campaign(ds, small_campaign(0, reserved + 2));
  const CampaignResult result =
      campaign.run(oracle, nullptr, folds.attacker_training, folds.testing, targets);
  EXPECT_EQ(result.train_programs, 2u);
  EXPECT_LE(result.queries_used, reserved + 2);

  // A budget that cannot cover even one labeled program is a config bug.
  attack::InProcessOracle starved(make_victim(), kServiceSeed);
  const Campaign impossible(ds, small_campaign(0, reserved));
  EXPECT_THROW((void)impossible.run(starved, nullptr, folds.attacker_training, folds.testing,
                                    targets),
               std::invalid_argument);
}

// ------------------------------------------------------------------ fleet

TEST(RedTeam, FleetSamplingIsDeterministicAndCalibratedOnDeviceZero) {
  const std::vector<FleetDevice> a = sample_fleet(4, 0xF1EE7, 0.10, 45.0);
  const std::vector<FleetDevice> b = sample_fleet(4, 0xF1EE7, 0.10, 45.0);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset_mv, b[i].offset_mv) << i;
    EXPECT_EQ(a[i].error_rate, b[i].error_rate) << i;
    EXPECT_EQ(a[i].frozen, b[i].frozen) << i;
    // One rail programming fleet-wide: the calibrated offset is shared.
    EXPECT_EQ(a[i].offset_mv, a[0].offset_mv) << i;
  }
  // The reference die runs at (approximately) the calibrated target; its
  // peers differ — process variation is the whole point of the model.
  EXPECT_NEAR(a[0].error_rate, 0.10, 0.02);
  bool any_differs = false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    any_differs = any_differs || a[i].error_rate != a[0].error_rate;
  }
  EXPECT_TRUE(any_differs);
  EXPECT_THROW((void)sample_fleet(0, 1, 0.10, 45.0), std::invalid_argument);
}

TEST(RedTeam, FleetTransferMeasuresEveryViableDevice) {
  const trace::Dataset& ds = tiny_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  // A synthetic crafted set — fleet measurement only needs features.
  attack::CraftOutcome crafted;
  crafted.malware_tested = 0;
  for (const std::size_t i : folds.testing) {
    if (!ds.samples()[i].malware() || crafted.evasive.size() >= 3) continue;
    ++crafted.malware_tested;
    crafted.evasive.push_back({i, ds.samples()[i].features, 0});
  }
  ASSERT_EQ(crafted.evasive.size(), 3u);

  const std::vector<FleetDevice> fleet = sample_fleet(3, 0xF1EE7, 0.10, 45.0);
  const nn::Network net = served_reference_network(kServiceSeed);
  std::vector<std::unique_ptr<hmd::StochasticHmd>> victims;  // outlive oracles
  const std::vector<FleetDeviceOutcome> outcomes = measure_fleet_transfer(
      ds, crafted, fleet,
      [&](const FleetDevice& dev) -> std::unique_ptr<attack::QueryOracle> {
        victims.push_back(
            std::make_unique<hmd::StochasticHmd>(net, victim_fc(), dev.error_rate));
        return std::make_unique<attack::InProcessOracle>(*victims.back(),
                                                         kServiceSeed + dev.index);
      });
  ASSERT_EQ(outcomes.size(), fleet.size());
  for (const FleetDeviceOutcome& o : outcomes) {
    if (o.device.frozen) {
      EXPECT_EQ(o.queries_used, 0u);
      EXPECT_EQ(o.transfer.proxy_evaded, 0u);
      continue;
    }
    EXPECT_EQ(o.transfer.proxy_evaded, crafted.evasive.size());
    EXPECT_EQ(o.queries_used, crafted.evasive.size());
    EXPECT_NE(o.decision_hash, 0u);
  }
}

}  // namespace
}  // namespace shmd::redteam
