#include "tests/testutil/differential.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "tests/testutil/fixtures.h"

namespace xqjg::testutil {

namespace {

/// The spill-budget axis of every relational lane: unlimited, and a
/// budget small enough to push the pipeline breakers to disk.
constexpr int64_t kSpillBudget = 16 * 1024;
const int64_t kBudgets[] = {0, kSpillBudget};

std::string BudgetLabel(int64_t budget) {
  return budget > 0 ? std::to_string(budget / 1024) + "KiB" : "unlimited";
}

/// splitmix64 — the same deterministic generator as RandomXml.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed + 0x9e3779b97f4a7c15ULL) {}
  uint64_t Next(uint64_t bound) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return z % bound;
  }
};

const char* kTags[] = {"a", "b", "c", "d"};

std::string PathQuery(Rng* rng, const std::string& doc) {
  std::string q = doc;
  const uint64_t steps = 1 + rng->Next(3);
  for (uint64_t s = 0; s < steps; ++s) {
    std::string axis;
    if (s == 0) {
      axis = "//";
    } else {
      switch (rng->Next(5)) {
        case 0:
          axis = "/";
          break;
        case 1:
          axis = "//";
          break;
        case 2:
          axis = "/parent::";
          break;
        case 3:
          axis = "/ancestor::";
          break;
        default:
          axis = "/following-sibling::";
          break;
      }
    }
    q += axis + kTags[rng->Next(4)];
    if (rng->Next(3) == 0) {
      // Predicate over a child's name or value.
      const char* inner = kTags[rng->Next(4)];
      switch (rng->Next(4)) {
        case 0:
          q += std::string("[") + inner + "]";
          break;
        case 1:
          q += std::string("[") + inner + " > " +
               std::to_string(rng->Next(50)) + "]";
          break;
        case 2:
          q += std::string("[") + inner + " < " +
               std::to_string(rng->Next(50)) + "]";
          break;
        default:
          q += std::string("[") + inner + " = " +
               std::to_string(rng->Next(50)) + "]";
          break;
      }
    }
  }
  if (rng->Next(4) == 0) {
    q += rng->Next(2) == 0 ? "/@id" : "/@ref";
  }
  return q;
}

}  // namespace

std::string RandomQuery(uint64_t seed, const std::string& uri) {
  Rng rng(seed);
  const std::string doc = "doc(\"" + uri + "\")";
  const uint64_t shape = rng.Next(10);
  if (shape < 7) return PathQuery(&rng, doc);
  if (shape < 9) {
    // Attribute join between two independent for-clauses.
    const char* t1 = kTags[rng.Next(4)];
    const char* t2 = kTags[rng.Next(4)];
    return "for $x in " + doc + "//" + t1 + " for $y in " + doc + "//" + t2 +
           " where $x/@id = $y/@ref return $y";
  }
  // Value filter + projection.
  const char* t1 = kTags[rng.Next(4)];
  const char* t2 = kTags[rng.Next(4)];
  const char* t3 = kTags[rng.Next(4)];
  return "for $x in " + doc + "//" + t1 + " where $x/" + t2 + " > " +
         std::to_string(rng.Next(50)) + " return $x/" + t3;
}

int FuzzIterations(int fallback) {
  const char* env = std::getenv("XQJG_FUZZ_ITERS");
  if (!env) return fallback;
  const int iters = std::atoi(env);
  return iters > 0 ? iters : fallback;
}

DifferentialHarness::DifferentialHarness(const std::string& uri,
                                         const std::string& xml) {
  auto check = [&](const Status& st, const char* what) {
    if (!st.ok()) {
      std::fprintf(stderr, "differential harness setup failed (%s): %s\n",
                   what, st.ToString().c_str());
      std::abort();
    }
  };
  check(indexed_.LoadDocument(uri, xml), "load (indexed)");
  check(indexed_.CreateRelationalIndexes(), "Table VI indexes");
  check(bare_.LoadDocument(uri, xml), "load (bare)");
}

::testing::AssertionResult DifferentialHarness::Check(
    const std::string& query, int threads) {
  api::RunOptions options;
  options.timeout_seconds = 60;
  // The fuzz sweep doubles as a corpus for the static plan verifier:
  // force it on explicitly (not kAuto) so Release fuzz legs check every
  // randomized plan too.
  options.validate_plans = api::ValidatePlans::kOn;
  options.mode = api::Mode::kNativeWhole;
  auto reference = indexed_.Run(query, options);
  if (!reference.ok()) {
    return ::testing::AssertionFailure()
           << "native reference failed for \"" << query
           << "\": " << reference.status().ToString();
  }
  struct Lane {
    const char* label;
    api::XQueryProcessor* processor;
    api::Mode mode;
  };
  const Lane lanes[] = {
      {"stacked", &indexed_, api::Mode::kStacked},
      {"joingraph/indexed", &indexed_, api::Mode::kJoinGraph},
      {"joingraph/bare", &bare_, api::Mode::kJoinGraph},
  };
  for (const Lane& lane : lanes) {
    api::PrepareOptions prep;
    prep.mode = lane.mode;
    prep.validate_plans = options.validate_plans;
    auto prepared = lane.processor->Prepare(query, prep);
    if (!prepared.ok()) {
      return ::testing::AssertionFailure()
             << lane.label << " Prepare failed for \"" << query
             << "\": " << prepared.status().ToString();
    }
    for (int64_t budget : kBudgets) {
      api::ExecuteOptions exec;
      exec.limits.timeout_seconds = options.timeout_seconds;
      exec.limits.max_memory_bytes = budget;
      exec.threads = threads;
      auto result = lane.processor->ExecuteAll(prepared.value(), exec);
      if (!result.ok()) {
        return ::testing::AssertionFailure()
               << lane.label << " (threads=" << threads
               << ", budget=" << BudgetLabel(budget) << ") failed for \""
               << query << "\": " << result.status().ToString();
      }
      if (result.value().items != reference.value().items) {
        return ::testing::AssertionFailure()
               << lane.label << " (threads=" << threads
               << ", budget=" << BudgetLabel(budget)
               << ") diverges from native for \"" << query
               << "\": " << result.value().items.size() << " vs "
               << reference.value().items.size() << " items";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult MutationInterleavedEpisode(uint64_t seed,
                                                      int steps,
                                                      int threads) {
  Rng rng(seed);
  uint64_t doc_seed = seed * 7919;
  std::vector<std::string> uris{"m0.xml"};
  DifferentialHarness harness(
      "m0.xml", RandomXml(doc_seed, 60 + static_cast<int>(seed % 4) * 30));
  api::XQueryProcessor& indexed = harness.indexed();
  api::XQueryProcessor& bare = harness.bare();

  // Loads and reloads go to BOTH processors (the lanes must keep seeing
  // one corpus); the indexed processor re-creates Table VI afterwards
  // because a document load resets the relational index set by contract.
  auto load_both = [&](const std::string& uri,
                       const std::string& xml) -> Status {
    XQJG_RETURN_NOT_OK(indexed.LoadDocument(uri, xml));
    XQJG_RETURN_NOT_OK(bare.LoadDocument(uri, xml));
    return indexed.CreateRelationalIndexes();
  };

  for (int step = 0; step < steps; ++step) {
    // 1. Pre-mutation: native reference + a cursor pinned to the current
    // snapshot, on a rotating relational lane (stacked or join graph)
    // and memory budget (unlimited or spilling). The cursor executes only
    // when drained (after the mutation), so this is the snapshot-
    // isolation probe: the old block, indexes, and native DOM must stay
    // alive and bit-identical under the cursor while the catalog moves.
    const std::string pin_uri = uris[rng.Next(uris.size())];
    const std::string pin_query = RandomQuery(seed * 131 + 7 * step, pin_uri);
    api::RunOptions nat;
    nat.timeout_seconds = 60;
    nat.validate_plans = api::ValidatePlans::kOn;
    nat.mode = api::Mode::kNativeWhole;
    auto reference = indexed.Run(pin_query, nat);
    if (!reference.ok()) {
      return ::testing::AssertionFailure()
             << "step " << step << ": native reference failed for \""
             << pin_query << "\": " << reference.status().ToString();
    }
    api::PrepareOptions popts;
    const uint64_t lane = rng.Next(4);
    popts.mode = lane < 2 ? api::Mode::kStacked : api::Mode::kJoinGraph;
    popts.validate_plans = api::ValidatePlans::kOn;
    auto prepared = indexed.Prepare(pin_query, popts);
    if (!prepared.ok()) {
      return ::testing::AssertionFailure()
             << "step " << step << ": Prepare failed for \"" << pin_query
             << "\": " << prepared.status().ToString();
    }
    api::ExecuteOptions eopts;
    eopts.limits.timeout_seconds = 60;
    eopts.limits.max_memory_bytes = kBudgets[lane % 2];
    eopts.threads = threads;
    auto cursor = indexed.Execute(prepared.value(), eopts);
    if (!cursor.ok()) {
      return ::testing::AssertionFailure()
             << "step " << step << ": Execute failed for \"" << pin_query
             << "\": " << cursor.status().ToString();
    }

    // 2. Mutate the catalog under the open cursor.
    std::string mutation_label;
    switch (rng.Next(3)) {
      case 0: {
        const std::string uri = "m" + std::to_string(uris.size()) + ".xml";
        mutation_label = "load " + uri;
        const Status st = load_both(
            uri, RandomXml(++doc_seed, 50 + static_cast<int>(rng.Next(4)) * 30));
        if (!st.ok()) {
          return ::testing::AssertionFailure()
                 << "step " << step << ": " << mutation_label
                 << " failed: " << st.ToString();
        }
        uris.push_back(uri);
        break;
      }
      case 1: {
        const std::string uri = uris[rng.Next(uris.size())];
        mutation_label = "reload " + uri;
        const Status st = load_both(
            uri, RandomXml(++doc_seed, 50 + static_cast<int>(rng.Next(4)) * 30));
        if (!st.ok()) {
          return ::testing::AssertionFailure()
                 << "step " << step << ": " << mutation_label
                 << " failed: " << st.ToString();
        }
        break;
      }
      default: {
        mutation_label = "index drop+create";
        indexed.DropRelationalIndexes();
        const Status st = indexed.CreateRelationalIndexes();
        if (!st.ok()) {
          return ::testing::AssertionFailure()
                 << "step " << step << ": " << mutation_label
                 << " failed: " << st.ToString();
        }
        break;
      }
    }

    // 3. Drain the pinned cursor: bit-identical to the pre-mutation
    // native reference.
    auto items = cursor.value()->FetchAll();
    if (!items.ok()) {
      return ::testing::AssertionFailure()
             << "step " << step << ": pinned cursor failed after "
             << mutation_label << " for \"" << pin_query
             << "\": " << items.status().ToString();
    }
    if (items.value() != reference.value().items) {
      return ::testing::AssertionFailure()
             << "step " << step << ": pinned cursor diverges after "
             << mutation_label << " for \"" << pin_query << "\" (lane "
             << lane << ", budget=" << BudgetLabel(kBudgets[lane % 2])
             << ", threads=" << threads << "): " << items.value().size()
             << " vs "
             << reference.value().items.size() << " items";
    }

    // 4. Fresh prepares against the mutated catalog agree on every lane.
    const std::string fresh_uri = uris[rng.Next(uris.size())];
    auto fresh =
        harness.Check(RandomQuery(seed * 977 + 13 * step, fresh_uri), threads);
    if (!fresh) {
      return ::testing::AssertionFailure()
             << "step " << step << " after " << mutation_label << ": "
             << fresh.message();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace xqjg::testutil
