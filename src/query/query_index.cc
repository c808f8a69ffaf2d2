#include "query/query_index.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace secreta {

RecordBitmap::RecordBitmap(size_t num_records, bool ones)
    : num_records_(num_records),
      words_((num_records + 63) / 64, ones ? ~uint64_t{0} : 0) {
  if (ones && num_records % 64 != 0 && !words_.empty()) {
    words_.back() = (uint64_t{1} << (num_records % 64)) - 1;
  }
}

void RecordBitmap::AndWith(const RecordBitmap& other) {
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  cached_count_.store(kUnknownCount, std::memory_order_relaxed);
}

size_t RecordBitmap::Count() const {
  uint64_t cached = cached_count_.load(std::memory_order_relaxed);
  if (cached == kUnknownCount) {
    cached = kernels::PopcountRange(words_.data(), words_.size());
    cached_count_.store(cached, std::memory_order_relaxed);
  }
  return static_cast<size_t>(cached);
}

size_t RecordBitmap::AndCount(const RecordBitmap& a, const RecordBitmap& b) {
  return static_cast<size_t>(
      kernels::AndPopcount(a.words_.data(), b.words_.data(), a.words_.size()));
}

QueryIndex QueryIndex::Build(const Dataset& dataset) {
  // Records are emitted in ascending order, so every list comes out
  // ascending.
  QueryIndex index;
  const size_t n = dataset.num_records();
  index.num_records_ = n;
  for (size_t col = 0; col < dataset.num_relational(); ++col) {
    index.columns_.push_back(
        Csr::Build(dataset.dictionary(col).size(), [&](auto emit) {
          for (size_t r = 0; r < n; ++r) {
            emit(static_cast<size_t>(dataset.value(r, col).raw()),
                 static_cast<uint32_t>(r));
          }
        }));
  }
  // Transactions exist only when the schema has a transaction attribute.
  index.items_ = Csr::Build(dataset.item_dictionary().size(), [&](auto emit) {
    if (!dataset.has_transaction()) return;
    for (size_t r = 0; r < n; ++r) {
      for (ItemId item : dataset.items(r).raw()) {
        emit(static_cast<size_t>(item), static_cast<uint32_t>(r));
      }
    }
  });
  return index;
}

RecordBitmap QueryIndex::ClauseBitmap(size_t col,
                                      const std::vector<char>& match) const {
  RecordBitmap bitmap(num_records_);
  for (size_t v = 0; v < match.size(); ++v) {
    if (!match[v]) continue;
    for (uint32_t r : postings(col, static_cast<ValueId>(v))) bitmap.Set(r);
  }
  return bitmap;
}

std::vector<uint32_t> QueryIndex::ItemIntersection(
    const std::vector<ItemId>& items) const {
  if (items.empty()) return {};
  std::vector<std::span<const uint32_t>> lists;
  lists.reserve(items.size());
  for (ItemId item : items) lists.push_back(item_postings(item));
  // Merge starting from the rarest item so the running result only shrinks.
  std::sort(lists.begin(), lists.end(),
            [](std::span<const uint32_t> a, std::span<const uint32_t> b) {
              return a.size() < b.size();
            });
  std::vector<uint32_t> result(lists[0].begin(), lists[0].end());
  for (size_t l = 1; l < lists.size() && !result.empty(); ++l) {
    // Branchless linear merge, in place: the write cursor never passes the
    // read cursor, and a record is kept only when both lists hold it.
    const std::span<const uint32_t> other = lists[l];
    size_t kept = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < result.size() && j < other.size()) {
      const uint32_t x = result[i];
      const uint32_t y = other[j];
      result[kept] = x;
      kept += (x == y);
      i += (x <= y);
      j += (y <= x);
    }
    result.resize(kept);
  }
  // A bound query keeps this vector for the workload's lifetime; do not let
  // it hold the rarest list's capacity.
  result.shrink_to_fit();
  return result;
}

}  // namespace secreta
