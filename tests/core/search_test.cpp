// Coverage-guided search tests: the novelty scorer's term arithmetic,
// the determinism contract (same seed + budget => identical generated
// stream and merged report for any job count), the search-state wire
// document, and checkpoint/resume equivalence — the property the kill -9
// integration tests lean on.
#include "core/search.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/executor.hpp"
#include "core/wire.hpp"

namespace ep::core {
namespace {

InjectionOutcome outcome_stub(bool fired, bool violated, int exit_code) {
  InjectionOutcome o;
  o.fired = fired;
  o.violated = violated;
  o.exit_code = exit_code;
  return o;
}

TEST(SearchScorer, TermsAddUpLargestFirst) {
  NoveltyScorer scorer;
  // A fresh scorer has seen nothing: class (+8), site (+2), fault (+1),
  // stock hints (+1).
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 12);
  // A mutated param forfeits only the stock-hints point.
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 77), 11);
  // An empty class label mutes the class term entirely.
  EXPECT_EQ(scorer.score("", "toy-read", "d:missing", 0), 4);
}

TEST(SearchScorer, AttemptsAndOutcomesRetireTheirTerms) {
  NoveltyScorer scorer;
  scorer.note_attempt("d:missing");
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 11);

  // A fired + violated outcome retires the class and site terms too.
  scorer.note_outcome("file", "toy-read", "d:missing",
                      outcome_stub(true, true, 1));
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 1);
  // Other classes and sites keep their novelty.
  EXPECT_EQ(scorer.score("dns", "toy-read", "d:missing", 0), 9);
  EXPECT_EQ(scorer.score("file", "toy-arg", "d:missing", 0), 3);
}

TEST(SearchScorer, SilentOutcomesRetireNeitherClassNorSite) {
  NoveltyScorer scorer;
  scorer.note_outcome("file", "toy-read", "d:missing",
                      outcome_stub(false, false, 0));
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 12);
  EXPECT_TRUE(scorer.fired_classes().empty());
}

TEST(SearchScorer, VerdictSignatureNoveltyIsPerShape) {
  NoveltyScorer scorer;
  EXPECT_TRUE(scorer.note_outcome("file", "a", "d:missing",
                                  outcome_stub(true, false, 1)));
  // The same shape again is old news.
  EXPECT_FALSE(scorer.note_outcome("file", "b", "d:missing",
                                   outcome_stub(true, false, 1)));
  // A different exit code is a new shape.
  EXPECT_TRUE(scorer.note_outcome("file", "c", "d:missing",
                                  outcome_stub(true, false, 2)));
}

// --- the source -------------------------------------------------------------

SearchOptions toy_search_options(std::size_t budget, std::size_t batch = 4) {
  SearchOptions o;
  o.seed = 7;
  o.budget = budget;
  o.batch = batch;
  o.classify = [](FaultKind kind, const std::string& name) {
    return std::string(kind == FaultKind::direct ? "d:" : "i:") + name;
  };
  return o;
}

TEST(SearchSource, SpendsExactlyTheBudgetInBatchSizedWaves) {
  Scenario s = toy_scenario();
  InjectionPlan base = Planner(s).plan();
  ASSERT_GT(base.items.size(), 6u);

  SearchWorkSource source(Planner(s).plan(), toy_search_options(6, 4));
  Executor executor(s);
  SearchRunResult run = run_search(executor, source);
  EXPECT_FALSE(run.stopped);
  EXPECT_EQ(source.plan().items.size(), 6u);
  EXPECT_EQ(run.waves, 2u);  // 4 + 2
  EXPECT_EQ(run.result.injections.size(), 6u);
}

TEST(SearchSource, StopsWhenTheFrontierRunsDry) {
  // Silent outcomes earn no mutation children, so the frontier is only
  // ever the base candidates — a budget far past them must end the wave
  // stream at the frontier, not loop. Driven by hand (no executor): the
  // source's contract is wave generation against absorbed feedback.
  Scenario s = toy_scenario();
  InjectionPlan base = Planner(s).plan();
  const std::size_t n = base.items.size();
  ASSERT_GT(n, 0u);
  SearchWorkSource source(std::move(base), toy_search_options(100000, 4));
  std::size_t total = 0;
  for (;;) {
    auto [begin, end] = source.next_wave();
    if (begin == end) break;
    total += end - begin;
    ShardReport r;
    r.scenario_name = source.plan().scenario_name;
    for (std::size_t id = begin; id < end; ++id) {
      r.item_ids.push_back(id);
      r.outcomes.push_back(outcome_stub(false, false, 0));
    }
    source.absorb(r);
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(source.plan().items.size(), n);
}

TEST(SearchSource, SameSeedIsByteIdenticalAcrossJobCounts) {
  Scenario s = toy_scenario();
  Executor executor(s);

  SearchWorkSource a(Planner(s).plan(), toy_search_options(10));
  SearchRunResult ra = run_search(executor, a, {1});

  for (int jobs : {2, 4}) {
    SearchWorkSource b(Planner(s).plan(), toy_search_options(10));
    ExecutorOptions opts;
    opts.jobs = jobs;
    SearchRunResult rb = run_search(executor, b, opts);
    EXPECT_EQ(a.plan().to_json(), b.plan().to_json()) << jobs << " jobs";
    expect_identical(ra.result, rb.result);
  }
}

TEST(SearchSource, DifferentSeedsDiverge) {
  // The seed feeds parameter mutation, so divergence shows up once the
  // budget reaches past the base frontier into mutation children.
  Scenario s = toy_scenario();
  Executor executor(s);
  const std::size_t n = Planner(s).plan().items.size();
  SearchOptions o1 = toy_search_options(n + 8, 8);
  SearchOptions o2 = toy_search_options(n + 8, 8);
  o2.seed = 8;
  SearchWorkSource a(Planner(s).plan(), o1);
  SearchWorkSource b(Planner(s).plan(), o2);
  run_search(executor, a);
  run_search(executor, b);
  EXPECT_NE(a.plan().to_json(), b.plan().to_json());
}

TEST(SearchSource, SharedScorerMakesALaterSearchSpendElsewhere) {
  // Family semantics: a class fired in the first member is no longer
  // novel in the second, so the second member's stream differs from what
  // it would have generated with a fresh scorer.
  Scenario s = toy_scenario();
  Executor executor(s);

  NoveltyScorer shared;
  SearchWorkSource first(Planner(s).plan(), toy_search_options(8), &shared);
  run_search(executor, first);
  ASSERT_FALSE(shared.fired_classes().empty());

  SearchWorkSource cumulative(Planner(s).plan(), toy_search_options(8),
                              &shared);
  SearchWorkSource fresh(Planner(s).plan(), toy_search_options(8));
  run_search(executor, cumulative);
  run_search(executor, fresh);
  EXPECT_NE(cumulative.plan().to_json(), fresh.plan().to_json());
}

// --- the search-state document ----------------------------------------------

SearchState sample_state(const Scenario& s) {
  Executor executor(s);
  SearchWorkSource source(Planner(s).plan(), toy_search_options(6, 4));
  run_search(executor, source);
  return source.state();
}

TEST(SearchState, JsonRoundTripIsByteIdentical) {
  SearchState st = sample_state(toy_scenario());
  ASSERT_FALSE(st.items.empty());
  ASSERT_FALSE(st.completed_ids.empty());
  const std::string json = search_state_to_json(st);
  EXPECT_EQ(search_state_to_json(search_state_from_json(json)), json);
}

TEST(SearchState, ParseRecoversEveryField) {
  SearchState st = sample_state(toy_scenario());
  SearchState rt = search_state_from_json(search_state_to_json(st));
  EXPECT_EQ(rt.scenario_name, st.scenario_name);
  EXPECT_EQ(rt.seed, st.seed);
  EXPECT_EQ(rt.budget, st.budget);
  EXPECT_EQ(rt.batch, st.batch);
  ASSERT_EQ(rt.items.size(), st.items.size());
  for (std::size_t i = 0; i < st.items.size(); ++i) {
    EXPECT_EQ(rt.items[i].point, st.items[i].point);
    EXPECT_EQ(rt.items[i].site, st.items[i].site);
    EXPECT_EQ(rt.items[i].kind, st.items[i].kind);
    EXPECT_EQ(rt.items[i].fault, st.items[i].fault);
    EXPECT_EQ(rt.items[i].param, st.items[i].param);
  }
  EXPECT_EQ(rt.wave_ends, st.wave_ends);
  EXPECT_EQ(rt.completed_ids, st.completed_ids);
  ASSERT_EQ(rt.outcomes.size(), st.outcomes.size());
  for (std::size_t i = 0; i < st.outcomes.size(); ++i) {
    EXPECT_EQ(rt.outcomes[i].fired, st.outcomes[i].fired);
    EXPECT_EQ(rt.outcomes[i].violated, st.outcomes[i].violated);
    EXPECT_EQ(rt.outcomes[i].exit_code, st.outcomes[i].exit_code);
  }
}

TEST(SearchState, SixtyFourBitSeedAndParamsRoundTripExactly) {
  // Seeds span all of uint64 and mutation params [1, 2^63): both past a
  // double's 53-bit mantissa, so the reader must keep them exact.
  SearchState st = sample_state(toy_scenario());
  ASSERT_FALSE(st.items.empty());
  st.seed = 18446744073709551615ULL;
  st.items.back().param = 9223372036854775807ULL;
  SearchState rt = search_state_from_json(search_state_to_json(st));
  EXPECT_EQ(rt.seed, st.seed);
  EXPECT_EQ(rt.items.back().param, st.items.back().param);
}

TEST(SearchState, RejectsForeignAndMalformedDocuments) {
  SearchState st = sample_state(toy_scenario());
  const std::string good = search_state_to_json(st);

  auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string bad = good;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    EXPECT_THROW(search_state_from_json(bad), WireError) << from;
  };
  corrupt("\"kind\": \"search-state\"", "\"kind\": \"campaign-report\"");
  corrupt("\"schema_version\": 1", "\"schema_version\": 99");
  EXPECT_THROW(search_state_from_json("not json"), WireError);
  EXPECT_THROW(search_state_from_json("{}"), WireError);

  // Wave boundaries must be ascending and end at the item count.
  SearchState bad_waves = st;
  ASSERT_FALSE(bad_waves.wave_ends.empty());
  bad_waves.wave_ends.back() += 1;
  EXPECT_THROW(
      search_state_from_json(search_state_to_json(bad_waves)), WireError);

  // Completed ids must be ascending and in range.
  SearchState bad_ids = st;
  ASSERT_GE(bad_ids.completed_ids.size(), 2u);
  std::swap(bad_ids.completed_ids.front(), bad_ids.completed_ids.back());
  EXPECT_THROW(
      search_state_from_json(search_state_to_json(bad_ids)), WireError);
}

// --- checkpoint / resume ----------------------------------------------------

TEST(SearchResume, ResumedSearchMatchesTheUninterruptedOne) {
  Scenario s = toy_scenario();
  Executor executor(s);

  // The control: one uninterrupted search, checkpointing every barrier.
  std::vector<SearchState> barriers;
  SearchWorkSource control(Planner(s).plan(), toy_search_options(10, 4));
  control.set_checkpoint(
      [&](const SearchState& st) { barriers.push_back(st); });
  SearchRunResult full = run_search(executor, control);
  ASSERT_GE(barriers.size(), 2u);

  // Resume from every intermediate barrier: each must re-generate the
  // identical stream and merge to the identical report — this is the
  // property that makes a kill -9 at any barrier recoverable.
  for (const SearchState& st : barriers) {
    SearchWorkSource resumed(Planner(s).plan(), toy_search_options(10, 4));
    resumed.resume(st);
    SearchRunResult r = run_search(executor, resumed);
    EXPECT_EQ(resumed.plan().to_json(), control.plan().to_json());
    expect_identical(full.result, r.result);
  }
}

TEST(SearchResume, StopAfterCheckpointsAndReportsStopped) {
  Scenario s = toy_scenario();
  Executor executor(s);
  std::size_t checkpoints = 0;
  SearchWorkSource source(Planner(s).plan(), toy_search_options(10, 4));
  source.set_checkpoint([&](const SearchState&) { ++checkpoints; });
  SearchRunResult run = run_search(executor, source, {}, 1);
  EXPECT_TRUE(run.stopped);
  EXPECT_EQ(run.waves, 1u);
  EXPECT_GE(checkpoints, 1u);  // the clean-stop checkpoint flushed
}

TEST(SearchResume, RejectsACheckpointFromADifferentSearch) {
  Scenario s = toy_scenario();
  SearchState st = sample_state(s);

  {
    SearchOptions other = toy_search_options(6, 4);
    other.seed = 99;
    SearchWorkSource source(Planner(s).plan(), other);
    EXPECT_THROW(source.resume(st), WireError);
  }
  {
    SearchWorkSource source(Planner(s).plan(), toy_search_options(7, 4));
    EXPECT_THROW(source.resume(st), WireError);  // budget mismatch
  }
  {
    SearchState foreign = st;
    foreign.scenario_name = "somebody-else";
    SearchWorkSource source(Planner(s).plan(), toy_search_options(6, 4));
    EXPECT_THROW(source.resume(foreign), WireError);
  }
}

// --- the FEEDBACK spec ------------------------------------------------------

TEST(SearchFeedback, SpecRoundTripsThroughTheParser) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  ASSERT_GE(plan.items.size(), 3u);
  plan.items[1].param = 771;  // a mutated item must survive the trip

  const std::string spec = feedback_spec(plan, 1, 3);
  std::vector<WorkItem> items = parse_feedback_spec(spec, plan.points.size());
  ASSERT_EQ(items.size(), 2u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const WorkItem& want = plan.items[1 + i];
    EXPECT_EQ(items[i].point_index, want.point_index);
    EXPECT_EQ(items[i].fault.kind, want.fault.kind);
    EXPECT_EQ(items[i].fault.name(), want.fault.name());
    EXPECT_EQ(items[i].param, want.param);
  }
}

TEST(SearchFeedback, ParserRejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",
      "0:i:close-fails",        // missing param
      "0:x:close-fails:0",      // unknown kind letter
      "9:d:file-existence:0",   // point out of range
      "0:d:no-such-fault:0",    // unresolvable fault
      "0:d:file-existence:x",   // param not a number
      "0:d:file-existence:0,",  // trailing comma
  };
  for (const std::string& spec : bad) {
    SCOPED_TRACE("'" + spec + "'");
    EXPECT_THROW(parse_feedback_spec(spec, 3), WireError);
  }
}

TEST(SearchFeedback, SpecRejectsRangesOutsideThePlan) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  EXPECT_THROW(feedback_spec(plan, 0, 0), WireError);
  EXPECT_THROW(
      feedback_spec(plan, plan.items.size(), plan.items.size() + 1),
      WireError);
}

}  // namespace
}  // namespace ep::core
