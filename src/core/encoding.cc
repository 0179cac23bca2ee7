#include "core/encoding.h"

#include <algorithm>
#include <numeric>

#include "core/join_scratch.h"
#include "util/logging.h"

namespace csj {

Encoder::Encoder(Dim d, Epsilon eps, uint32_t parts) : d_(d), eps_(eps) {
  CSJ_CHECK_GE(d, 1u);
  const uint32_t p = ClampParts(parts, d);
  // Figure 1 splits d=27 into 6|7|7|7: the first parts take floor(d/p)
  // dimensions and the last (d mod p) parts take one extra.
  const Dim base = d / p;
  const Dim extra = d % p;
  part_begin_.resize(p + 1);
  part_begin_[0] = 0;
  for (uint32_t i = 0; i < p; ++i) {
    const Dim width = base + (i >= p - extra ? 1 : 0);
    part_begin_[i + 1] = part_begin_[i] + width;
  }
  CSJ_CHECK_EQ(part_begin_[p], d);
}

std::vector<uint64_t> Encoder::PartSums(std::span<const Count> vec) const {
  std::vector<uint64_t> sums(parts(), 0);
  PartSumsInto(vec, sums);
  return sums;
}

void Encoder::PartSumsInto(std::span<const Count> vec,
                           std::span<uint64_t> sums) const {
  CSJ_CHECK_EQ(vec.size(), d_);
  const uint32_t p = parts();
  CSJ_CHECK_EQ(sums.size(), p);
  for (uint32_t part = 0; part < p; ++part) {
    uint64_t sum = 0;
    for (Dim i = part_begin_[part]; i < part_begin_[part + 1]; ++i) {
      sum += vec[i];
    }
    sums[part] = sum;
  }
}

uint64_t Encoder::EncodedId(std::span<const Count> vec) const {
  CSJ_CHECK_EQ(vec.size(), d_);
  uint64_t id = 0;
  for (const Count c : vec) id += c;
  return id;
}

void Encoder::PartRanges(std::span<const Count> vec, std::vector<uint64_t>* lo,
                         std::vector<uint64_t>* hi) const {
  lo->assign(parts(), 0);
  hi->assign(parts(), 0);
  PartRangesInto(vec, *lo, *hi);
}

void Encoder::PartRangesInto(std::span<const Count> vec,
                             std::span<uint64_t> lo,
                             std::span<uint64_t> hi) const {
  CSJ_CHECK_EQ(vec.size(), d_);
  const uint32_t p = parts();
  CSJ_CHECK_EQ(lo.size(), p);
  CSJ_CHECK_EQ(hi.size(), p);
  for (uint32_t part = 0; part < p; ++part) {
    uint64_t sum_lo = 0;
    uint64_t sum_hi = 0;
    for (Dim i = part_begin_[part]; i < part_begin_[part + 1]; ++i) {
      // max() compiles branchless: counters straddle eps unpredictably
      // (about half are zero), so a compare-and-branch mispredicts its
      // way through every community.
      sum_lo += std::max<uint64_t>(vec[i], eps_) - eps_;
      sum_hi += static_cast<uint64_t>(vec[i]) + eps_;
    }
    lo[part] = sum_lo;
    hi[part] = sum_hi;
  }
}

namespace {

/// Sort permutation of 0..n-1 by (key[i], i) into `perm`: stable within
/// equal keys so traces are deterministic.
void SortPermutationInto(const std::vector<uint64_t>& keys,
                         std::vector<uint32_t>* perm) {
  const uint32_t n = static_cast<uint32_t>(keys.size());
  perm->resize(n);
  std::iota(perm->begin(), perm->end(), 0u);
  if (n <= 64) {
    // Insertion sort with a strict `>` shift: stable, so equal keys keep
    // their ascending index order — exactly the (key, index) order the
    // comparator below produces — without introsort's dispatch overhead,
    // which dominates at catalog community sizes (tens of users).
    uint32_t* p = perm->data();
    for (uint32_t i = 1; i < n; ++i) {
      const uint32_t v = p[i];
      const uint64_t key = keys[v];
      uint32_t j = i;
      for (; j > 0 && keys[p[j - 1]] > key; --j) p[j] = p[j - 1];
      p[j] = v;
    }
    return;
  }
  std::sort(perm->begin(), perm->end(), [&](uint32_t x, uint32_t y) {
    if (keys[x] != keys[y]) return keys[x] < keys[y];
    return x < y;
  });
}

}  // namespace

EncodedB::EncodedB(const Community& b, const Encoder& encoder)
    : parts_(encoder.parts()) {
  const uint32_t n = b.size();
  // The unsorted keys, part sums, and the permutation are per-thread
  // scratch, so building Encd_B performs no per-user allocation. One pass
  // computes each user's part sums, and the encoded id falls out as their
  // total — the same integer sum of the same counters, just associated
  // differently — so no second per-user pass is needed after the sort.
  internal::JoinScratch& scratch = internal::GetJoinScratch();
  std::vector<uint64_t>& unsorted_ids = scratch.keys;
  std::vector<uint64_t>& unsorted_sums = scratch.sums;
  unsorted_ids.resize(n);
  unsorted_sums.resize(static_cast<size_t>(n) * parts_);
  const Dim d = encoder.d();
  const Count* row = b.flat().data();
  uint64_t* sums = unsorted_sums.data();
  for (UserId u = 0; u < n; ++u, row += d, sums += parts_) {
    uint64_t id = 0;
    for (uint32_t part = 0; part < parts_; ++part) {
      uint64_t sum = 0;
      const Dim end = encoder.PartBegin(part + 1);
      for (Dim i = encoder.PartBegin(part); i < end; ++i) sum += row[i];
      sums[part] = sum;
      id += sum;
    }
    unsorted_ids[u] = id;
  }
  SortPermutationInto(unsorted_ids, &scratch.perm);
  const std::vector<uint32_t>& perm = scratch.perm;

  std::vector<uint64_t> ids(n);
  std::vector<UserId> real(n);
  std::vector<uint64_t> sorted_sums(static_cast<size_t>(n) * parts_);
  for (uint32_t i = 0; i < n; ++i) {
    const UserId u = perm[i];
    ids[i] = unsorted_ids[u];
    real[i] = u;
    std::copy_n(unsorted_sums.data() + static_cast<size_t>(u) * parts_,
                parts_, sorted_sums.data() + static_cast<size_t>(i) * parts_);
  }
  ids_ = std::move(ids);
  real_ = std::move(real);
  sums_ = std::move(sorted_sums);
}

EncodedB::EncodedB(const Columns& columns, std::shared_ptr<const void> owner)
    : parts_(columns.parts),
      ids_(ColumnStorage<uint64_t>::View(columns.ids, columns.n)),
      real_(ColumnStorage<UserId>::View(columns.real, columns.n)),
      sums_(ColumnStorage<uint64_t>::View(
          columns.sums, static_cast<size_t>(columns.n) * columns.parts)),
      owner_(std::move(owner)) {
  CSJ_CHECK_GE(parts_, 1u);
  CSJ_CHECK(columns.n == 0 ||
            (columns.ids != nullptr && columns.real != nullptr &&
             columns.sums != nullptr));
}

EncodedA::EncodedA(const Community& a, const Encoder& encoder)
    : parts_(encoder.parts()) {
  const uint32_t n = a.size();
  // Unsorted temporaries live in per-thread scratch (keys = encoded
  // mins, sums = encoded maxs); the per-user ranges are encoded straight
  // into the unsorted flat buffers.
  internal::JoinScratch& scratch = internal::GetJoinScratch();
  std::vector<uint64_t>& unsorted_mins = scratch.keys;
  std::vector<uint64_t>& unsorted_maxs = scratch.sums;
  std::vector<uint64_t>& unsorted_lo = scratch.lo;
  std::vector<uint64_t>& unsorted_hi = scratch.hi;
  unsorted_mins.resize(n);
  unsorted_maxs.resize(n);
  unsorted_lo.resize(static_cast<size_t>(n) * parts_);
  unsorted_hi.resize(static_cast<size_t>(n) * parts_);
  const Dim d = encoder.d();
  const uint64_t eps = encoder.eps();
  const Count* row = a.flat().data();
  uint64_t* lo = unsorted_lo.data();
  uint64_t* hi = unsorted_hi.data();
  for (UserId u = 0; u < n; ++u, row += d, lo += parts_, hi += parts_) {
    uint64_t min_sum = 0;
    uint64_t max_sum = 0;
    for (uint32_t part = 0; part < parts_; ++part) {
      const Dim begin = encoder.PartBegin(part);
      const Dim end = encoder.PartBegin(part + 1);
      uint64_t sum_lo = 0;
      uint64_t sum_raw = 0;
      for (Dim i = begin; i < end; ++i) {
        const uint64_t v = row[i];
        // max() compiles branchless — counters straddle eps
        // unpredictably, a compare-and-branch mispredicts constantly.
        sum_lo += std::max(v, eps) - eps;
        sum_raw += v;
      }
      // sum(v + eps) == sum(v) + eps * width, exactly (integers), so the
      // hi endpoint rides along on the raw sum with one multiply.
      const uint64_t sum_hi = sum_raw + eps * (end - begin);
      lo[part] = sum_lo;
      hi[part] = sum_hi;
      min_sum += sum_lo;
      max_sum += sum_hi;
    }
    unsorted_mins[u] = min_sum;
    unsorted_maxs[u] = max_sum;
  }
  SortPermutationInto(unsorted_mins, &scratch.perm);
  const std::vector<uint32_t>& perm = scratch.perm;

  std::vector<uint64_t> mins(n);
  std::vector<uint64_t> maxs(n);
  std::vector<UserId> real(n);
  // Part-major columns (see part_lo()): column 2p holds part p's lo for
  // every entry, column 2p+1 the hi, both in sorted order.
  std::vector<uint64_t> cols(static_cast<size_t>(n) * 2 * parts_);
  for (uint32_t i = 0; i < n; ++i) {
    const UserId u = perm[i];
    mins[i] = unsorted_mins[u];
    maxs[i] = unsorted_maxs[u];
    real[i] = u;
    for (uint32_t p = 0; p < parts_; ++p) {
      cols[static_cast<size_t>(2 * p) * n + i] =
          unsorted_lo[static_cast<size_t>(u) * parts_ + p];
      cols[static_cast<size_t>(2 * p + 1) * n + i] =
          unsorted_hi[static_cast<size_t>(u) * parts_ + p];
    }
  }
  mins_ = std::move(mins);
  maxs_ = std::move(maxs);
  real_ = std::move(real);
  cols_ = std::move(cols);
  window_.Assign(n, encoder.d(),
                 [&](uint32_t i) { return a.User(real_[i]); });
}

EncodedA::EncodedA(const Columns& columns, std::shared_ptr<const void> owner)
    : parts_(columns.parts),
      mins_(ColumnStorage<uint64_t>::View(columns.mins, columns.n)),
      maxs_(ColumnStorage<uint64_t>::View(columns.maxs, columns.n)),
      real_(ColumnStorage<UserId>::View(columns.real, columns.n)),
      cols_(ColumnStorage<uint64_t>::View(
          columns.cols, static_cast<size_t>(columns.n) * 2 * columns.parts)),
      owner_(std::move(owner)) {
  CSJ_CHECK_GE(parts_, 1u);
  CSJ_CHECK(columns.n == 0 ||
            (columns.mins != nullptr && columns.maxs != nullptr &&
             columns.real != nullptr && columns.cols != nullptr &&
             columns.window != nullptr));
  // The window shares owner_ through its own keep-alive: a copied-out
  // window must not dangle if this buffer dies first.
  window_.AssignView(columns.n, columns.d, columns.window, owner_);
}

uint32_t EncodedA::UpperBound(uint64_t id) const {
  const auto it = std::upper_bound(mins_.begin(), mins_.end(), id);
  return static_cast<uint32_t>(it - mins_.begin());
}

}  // namespace csj
