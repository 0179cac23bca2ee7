// Seeded corruption of wire frames. A fixed budget of byte flips,
// truncations and splices is applied to copies of valid request and
// response frames (and to a stream carrying all of them back to back);
// every damaged copy is fed to a FrameDecoder in random slice sizes.
// Every Next/Finish call must return a WireStatus — never abort — and a
// decoder that reported a stream error must keep reporting that same
// error for every later call.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "net/wire.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::net {
namespace {

constexpr uint32_t kCopies = 2000;

std::shared_ptr<const Community> SmallCommunity(uint32_t users, Dim d,
                                                uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  std::vector<Count> flat(static_cast<size_t>(users) * d);
  for (Count& c : flat) c = static_cast<Count>(rng.Below(50));
  return std::make_shared<const Community>(d, std::move(flat), "probe");
}

/// One valid frame per shape: top-k with a community, upsert, remove,
/// an ok response with k entries, and each error status.
std::vector<std::vector<uint8_t>> FrameCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  auto add_request = [&](uint32_t request_id, const WireRequest& request) {
    corpus.emplace_back();
    EncodeRequestFrame(request_id, request, &corpus.back());
  };
  auto add_response = [&](uint32_t request_id, const WireResponse& response) {
    corpus.emplace_back();
    EncodeResponseFrame(request_id, response, &corpus.back());
  };

  WireRequest topk;
  topk.kind = service::RequestKind::kTopK;
  topk.k = 5;
  topk.eps = 2;
  topk.prescreen = true;
  topk.deadline_seconds = 0.5;
  topk.community = SmallCommunity(6, 4, 1);
  add_request(1, topk);

  WireRequest upsert;
  upsert.kind = service::RequestKind::kUpsert;
  upsert.id = 42;
  upsert.community = SmallCommunity(3, 5, 2);
  add_request(2, upsert);

  WireRequest remove;
  remove.kind = service::RequestKind::kRemove;
  remove.id = 42;
  add_request(3, remove);

  WireResponse ok;
  ok.status = service::ServeStatus::kOk;
  ok.cache_hit = true;
  ok.state_version = 9;
  ok.sequence = 17;
  ok.total_seconds = 0.01;
  for (const uint64_t e : {0u, 1u, 2u, 3u}) {
    ok.entries.push_back(
        service::TopKEntry{100 + e, e + 1, 0.9 - 0.1 * static_cast<int>(e)});
  }
  ok.catalog_entries = 12;
  ok.refined = 4;
  add_response(1, ok);

  for (const service::ServeStatus status :
       {service::ServeStatus::kRejected, service::ServeStatus::kDeadlineExpired,
        service::ServeStatus::kNotFound}) {
    WireResponse error;
    error.status = status;
    error.deadline_expired = status == service::ServeStatus::kDeadlineExpired;
    add_response(4, error);
  }

  // Back-to-back frames: damage can also land across a frame border.
  std::vector<uint8_t> stream;
  for (const auto& frame : corpus) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  corpus.push_back(std::move(stream));
  return corpus;
}

/// Applies one seeded mutation: 1-4 byte flips, a truncation, or a
/// splice (a run of the bytes copied over another stretch of them).
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& pristine,
                            util::Rng& rng) {
  std::vector<uint8_t> bytes = pristine;
  switch (rng.Below(3)) {
    case 0: {
      const uint64_t flips = 1 + rng.Below(4);
      for (uint64_t f = 0; f < flips; ++f) {
        bytes[rng.Below(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.Below(255));
      }
      break;
    }
    case 1:
      bytes.resize(rng.Below(bytes.size()));
      break;
    default: {
      const uint64_t length =
          1 + rng.Below(std::min<uint64_t>(64, bytes.size() - 1));
      const uint64_t from = rng.Below(bytes.size() - length);
      const uint64_t to = rng.Below(bytes.size() - length);
      std::memmove(bytes.data() + to, pristine.data() + from, length);
      break;
    }
  }
  return bytes;
}

bool IsStreamError(WireStatus status) {
  return status != WireStatus::kOk && status != WireStatus::kNeedMore;
}

/// What one decode of a byte stream came to.
struct DecodeOutcome {
  uint64_t frames = 0;
  WireStatus last = WireStatus::kOk;  ///< Finish()'s verdict
};

/// Feeds `bytes` in random slices of 1-64 bytes, draining Next() after
/// every slice, then calls Finish(). Checks the sticky-error contract on
/// the way: once a call reports a stream error, every later call reports
/// the same one.
DecodeOutcome FeedInSlices(const std::vector<uint8_t>& bytes, util::Rng& rng) {
  FrameDecoder decoder;
  DecodeOutcome outcome;
  WireStatus poisoned = WireStatus::kOk;
  auto check = [&](WireStatus status) {
    if (poisoned != WireStatus::kOk) {
      EXPECT_EQ(status, poisoned) << "a poisoned decoder recovered";
    } else if (IsStreamError(status)) {
      poisoned = status;
    }
  };
  size_t fed = 0;
  while (fed < bytes.size()) {
    const size_t slice =
        std::min<size_t>(1 + rng.Below(64), bytes.size() - fed);
    decoder.Feed(bytes.data() + fed, slice);
    fed += slice;
    for (;;) {
      DecodedFrame frame;
      const WireStatus status = decoder.Next(&frame);
      check(status);
      if (status != WireStatus::kOk) break;
      ++outcome.frames;
    }
  }
  outcome.last = decoder.Finish();
  check(outcome.last);
  if (poisoned != WireStatus::kOk) {
    DecodedFrame frame;
    check(decoder.Next(&frame));
    check(decoder.Finish());
  }
  return outcome;
}

TEST(FrameCorruptionTest, PristineCorpusDecodesCleanly) {
  const auto corpus = FrameCorpus();
  util::Rng rng(testing::TestSeed(0xF4A0));
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    const DecodeOutcome outcome = FeedInSlices(corpus[i], rng);
    EXPECT_EQ(outcome.frames, 1u) << "frame " << i;
    EXPECT_EQ(outcome.last, WireStatus::kOk) << "frame " << i;
  }
  const DecodeOutcome stream = FeedInSlices(corpus.back(), rng);
  EXPECT_EQ(stream.frames, corpus.size() - 1);
  EXPECT_EQ(stream.last, WireStatus::kOk);
}

TEST(FrameCorruptionTest, SeededDamageOnlyEverReturnsAStatus) {
  const auto corpus = FrameCorpus();
  util::Rng rng(testing::TestSeed(0xF4A1));
  uint32_t poisoned = 0;
  uint32_t truncated = 0;
  for (uint32_t copy = 0; copy < kCopies; ++copy) {
    const auto& pristine = corpus[rng.Below(corpus.size())];
    const std::vector<uint8_t> bytes = Mutate(pristine, rng);
    const DecodeOutcome outcome = FeedInSlices(bytes, rng);
    if (outcome.last == WireStatus::kTruncated) {
      ++truncated;
    } else if (IsStreamError(outcome.last)) {
      ++poisoned;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "copy " << copy << " (seed " << testing::TestSeed(0xF4A1)
             << ")";
    }
  }
  // The budget must actually exercise both failure shapes.
  EXPECT_GT(poisoned, 0u);
  EXPECT_GT(truncated, 0u);
}

}  // namespace
}  // namespace csj::net
