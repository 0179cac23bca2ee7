// google-benchmark microbenchmarks for csjoin's hot kernels: the epsilon
// predicate, the MinMax encoder, encoded-buffer construction, EGO sort,
// the one-to-one matchers, and one Ex-MinMax refine join.

#include <bit>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/community.h"
#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/epsilon_predicate.h"
#include "core/method.h"
#include "data/community_sampler.h"
#include "data/generator.h"
#include "ego/normalized.h"
#include "matching/csf.h"
#include "matching/hopcroft_karp.h"
#include "util/rng.h"

namespace {

using csj::Community;
using csj::Count;
using csj::Dim;
using csj::MatchedPair;
using csj::UserId;

Community RandomCommunity(Dim d, uint32_t n, Count max_value, uint64_t seed) {
  csj::util::Rng rng(seed);
  Community c(d);
  std::vector<Count> vec(d);
  for (uint32_t i = 0; i < n; ++i) {
    for (auto& v : vec) v = static_cast<Count>(rng.Below(max_value + 1));
    c.AddUser(vec);
  }
  return c;
}

/// The pre-blocking kernel (branchy per-dimension short circuit), kept
/// verbatim as the baseline the blocked EpsilonMatches is measured
/// against.
bool EpsilonMatchesScalarReference(std::span<const Count> b,
                                   std::span<const Count> a,
                                   csj::Epsilon eps) {
  const size_t d = b.size();
  for (size_t i = 0; i < d; ++i) {
    const Count lo = b[i] < a[i] ? b[i] : a[i];
    const Count hi = b[i] < a[i] ? a[i] : b[i];
    if (hi - lo > eps) return false;
  }
  return true;
}

template <bool (*Kernel)(std::span<const Count>, std::span<const Count>,
                         csj::Epsilon)>
void EpsilonPredicateHarness(benchmark::State& state) {
  const auto d = static_cast<Dim>(state.range(0));
  const Community c = RandomCommunity(d, 1024, 50, 1);
  uint64_t matches = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    const UserId x = i % 1024;
    const UserId y = (i * 7 + 13) % 1024;
    matches += Kernel(c.User(x), c.User(y), 1) ? 1u : 0u;
    ++i;
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(state.iterations());
}

void BM_EpsilonPredicate(benchmark::State& state) {
  EpsilonPredicateHarness<&csj::EpsilonMatches>(state);
}
BENCHMARK(BM_EpsilonPredicate)->Arg(4)->Arg(16)->Arg(27)->Arg(64)->Arg(128);

void BM_EpsilonPredicateScalarRef(benchmark::State& state) {
  EpsilonPredicateHarness<&EpsilonMatchesScalarReference>(state);
}
BENCHMARK(BM_EpsilonPredicateScalarRef)
    ->Arg(4)
    ->Arg(16)
    ->Arg(27)
    ->Arg(64)
    ->Arg(128);

/// The all-dimensions-match worst case: no early exit is possible, so
/// this isolates raw per-dimension throughput (where vectorization pays).
template <bool (*Kernel)(std::span<const Count>, std::span<const Count>,
                         csj::Epsilon)>
void EpsilonPredicateMatchHarness(benchmark::State& state) {
  const auto d = static_cast<Dim>(state.range(0));
  const Community c = RandomCommunity(d, 1024, 1, 7);  // counters in {0,1}
  uint64_t matches = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    const UserId x = i % 1024;
    const UserId y = (i * 7 + 13) % 1024;
    matches += Kernel(c.User(x), c.User(y), 1) ? 1u : 0u;  // always true
    ++i;
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(state.iterations());
}

void BM_EpsilonPredicateAllMatch(benchmark::State& state) {
  EpsilonPredicateMatchHarness<&csj::EpsilonMatches>(state);
}
BENCHMARK(BM_EpsilonPredicateAllMatch)->Arg(16)->Arg(27)->Arg(64)->Arg(128);

void BM_EpsilonPredicateAllMatchScalarRef(benchmark::State& state) {
  EpsilonPredicateMatchHarness<&EpsilonMatchesScalarReference>(state);
}
BENCHMARK(BM_EpsilonPredicateAllMatchScalarRef)
    ->Arg(16)
    ->Arg(27)
    ->Arg(64)
    ->Arg(128);

// ---- 1-vs-many batched verification ---------------------------------
//
// The shapes the join loops hand the batched kernel: a probe against a
// candidate run of `n` (one SoA block, or a long dense window), at the
// dimensionalities of the paper's datasets and beyond. The looped twin
// calls the per-pair kernel once per candidate — the code the batched
// path replaces — so the items/sec ratio IS the batching win.

struct ManyFixture {
  Community community;
  csj::VerifyWindow window;
  std::vector<std::vector<Count>> probes;
};

ManyFixture MakeManyFixture(Dim d, uint32_t n, Count max_value,
                            uint64_t seed) {
  ManyFixture fx{RandomCommunity(d, n, max_value, seed), {}, {}};
  fx.window.Assign(n, d,
                   [&](uint32_t i) { return fx.community.User(i); });
  csj::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  fx.probes.resize(64);
  for (auto& probe : fx.probes) {
    probe.resize(d);
    for (Dim k = 0; k < d; ++k) {
      probe[k] = static_cast<Count>(rng.Below(max_value + 1));
    }
  }
  return fx;
}

void BM_EpsilonMatchesMany(benchmark::State& state) {
  const auto d = static_cast<Dim>(state.range(0));
  const auto n = static_cast<uint32_t>(state.range(1));
  const Count max_value = static_cast<Count>(state.range(2));
  const ManyFixture fx = MakeManyFixture(d, n, max_value, 11);
  std::vector<uint64_t> mask((n + 63) / 64);
  uint64_t survivors = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    csj::EpsilonMatchesMany(fx.probes[i++ % fx.probes.size()], fx.window, 0,
                            n, 1, mask.data());
    for (const uint64_t word : mask) {
      survivors += static_cast<uint64_t>(std::popcount(word));
    }
  }
  benchmark::DoNotOptimize(survivors);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_EpsilonMatchesLooped(benchmark::State& state) {
  const auto d = static_cast<Dim>(state.range(0));
  const auto n = static_cast<uint32_t>(state.range(1));
  const Count max_value = static_cast<Count>(state.range(2));
  const ManyFixture fx = MakeManyFixture(d, n, max_value, 11);
  uint64_t survivors = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    const std::span<const Count> probe = fx.probes[i++ % fx.probes.size()];
    for (uint32_t ia = 0; ia < n; ++ia) {
      survivors +=
          csj::EpsilonMatches(probe, fx.community.User(ia), 1) ? 1u : 0u;
    }
  }
  benchmark::DoNotOptimize(survivors);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

// Args: {d, run length, max counter}. max_value 6 is the mixed case
// (some dims pass, most candidates eventually fail); max_value 1 with
// eps 1 is the all-match worst case (no early exit anywhere).
static void ManyArgs(benchmark::internal::Benchmark* bench) {
  for (const int64_t d : {16, 27, 64, 128}) {
    for (const int64_t run : {8, 64}) {
      bench->Args({d, run, 6});
      bench->Args({d, run, 1});
    }
  }
}
BENCHMARK(BM_EpsilonMatchesMany)->Apply(ManyArgs);
BENCHMARK(BM_EpsilonMatchesLooped)->Apply(ManyArgs);

void BM_EncoderEncodeOne(benchmark::State& state) {
  const Community c = RandomCommunity(27, 1024, 100, 2);
  const csj::Encoder encoder(27, 1, static_cast<uint32_t>(state.range(0)));
  std::vector<uint64_t> lo;
  std::vector<uint64_t> hi;
  uint32_t i = 0;
  for (auto _ : state) {
    encoder.PartRanges(c.User(i % 1024), &lo, &hi);
    benchmark::DoNotOptimize(lo.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncoderEncodeOne)->Arg(1)->Arg(4)->Arg(27);

void BM_EncodedBufferBuild(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const Community c = RandomCommunity(27, n, 100, 3);
  const csj::Encoder encoder(27, 1, 4);
  for (auto _ : state) {
    const csj::EncodedA encd(c, encoder);
    benchmark::DoNotOptimize(encd.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EncodedBufferBuild)->Arg(1024)->Arg(8192);

void BM_EgoSort(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const Community c = RandomCommunity(27, n, 100000, 4);
  const std::vector<Dim> order = csj::ego::IdentityOrder(27);
  for (auto _ : state) {
    const csj::ego::NormalizedData norm =
        csj::ego::Normalize(c, 152532, 1, order);
    benchmark::DoNotOptimize(norm.flat.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EgoSort)->Arg(1024)->Arg(8192);

std::vector<MatchedPair> RandomEdges(uint32_t nb, uint32_t na, double density,
                                     uint64_t seed) {
  csj::util::Rng rng(seed);
  std::vector<MatchedPair> edges;
  for (UserId b = 0; b < nb; ++b) {
    for (UserId a = 0; a < na; ++a) {
      if (rng.Bernoulli(density)) edges.push_back(MatchedPair{b, a});
    }
  }
  return edges;
}

void BM_CoverSmallestFirst(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const auto edges = RandomEdges(n, n, 8.0 / n, 5);
  for (auto _ : state) {
    const auto matched = csj::matching::CoverSmallestFirst(edges);
    benchmark::DoNotOptimize(matched.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_CoverSmallestFirst)->Arg(1024)->Arg(8192);

void BM_HopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const auto edges = RandomEdges(n, n, 8.0 / n, 6);
  for (auto _ : state) {
    const auto matched = csj::matching::HopcroftKarp(edges);
    benchmark::DoNotOptimize(matched.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_HopcroftKarp)->Arg(1024)->Arg(8192);

/// One Ex-MinMax refine join on the serving couple shape: a 40-user
/// query planted against a 40-user catalog entry at 0.5-0.8 similarity
/// (the serving workloads' cluster grades), eps 1, warm EncodingCache.
/// Arg = join_threads. This is the per-join cost behind a top-k query's
/// refine phase, cycled over 64 couples.
void BM_ExMinMaxRefineJoin(benchmark::State& state) {
  constexpr uint32_t kCouples = 64;
  csj::util::Rng rng(7);
  csj::data::VkLikeGenerator gen(csj::data::Category::kSport);
  std::vector<std::pair<Community, Community>> couples;
  for (uint32_t i = 0; i < kCouples; ++i) {
    Community entry = csj::data::MakeCommunity(gen, 40, rng);
    csj::data::CoupleSpec spec;
    spec.size_b = 40;
    spec.eps = 1;
    spec.target_similarity = 0.5 + 0.3 * static_cast<double>(i % 5) / 4.0;
    Community query =
        csj::data::PlantCommunityAgainst(entry, gen, spec, rng);
    couples.emplace_back(std::move(query), std::move(entry));
  }
  csj::EncodingCache cache;
  csj::JoinOptions options;
  options.eps = 1;
  options.cache = &cache;
  options.join_threads = static_cast<uint32_t>(state.range(0));
  for (const auto& [query, entry] : couples) {
    csj::RunMethod(csj::Method::kExMinMax, query, entry, options);
  }
  uint64_t pairs = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    const auto& [query, entry] = couples[i++ % kCouples];
    pairs += csj::RunMethod(csj::Method::kExMinMax, query, entry, options)
                 .pairs.size();
  }
  state.counters["pairs_per_join"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExMinMaxRefineJoin)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
