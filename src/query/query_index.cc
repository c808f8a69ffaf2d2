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

template <typename KeysOf>
QueryIndex::Csr QueryIndex::Csr::Build(size_t num_records, size_t domain,
                                       KeysOf keys_of) {
  // One pass counts each key's records, one places them. Records are placed
  // in ascending order, so every list comes out ascending.
  Csr csr;
  csr.offsets.assign(domain + 1, 0);
  for (size_t r = 0; r < num_records; ++r) {
    keys_of(r, [&](size_t key) { ++csr.offsets[key + 1]; });
  }
  for (size_t k = 0; k < domain; ++k) csr.offsets[k + 1] += csr.offsets[k];
  csr.records.resize(csr.offsets[domain]);
  std::vector<size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (size_t r = 0; r < num_records; ++r) {
    keys_of(r, [&](size_t key) {
      csr.records[cursor[key]++] = static_cast<uint32_t>(r);
    });
  }
  return csr;
}

QueryIndex QueryIndex::Build(const Dataset& dataset) {
  QueryIndex index;
  index.num_records_ = dataset.num_records();
  for (size_t col = 0; col < dataset.num_relational(); ++col) {
    index.columns_.push_back(Csr::Build(
        index.num_records_, dataset.dictionary(col).size(),
        [&](size_t r, auto add) {
          add(static_cast<size_t>(dataset.value(r, col).raw()));
        }));
  }
  // Transactions exist only when the schema has a transaction attribute.
  const size_t txn_records =
      dataset.has_transaction() ? index.num_records_ : 0;
  index.items_ = Csr::Build(
      txn_records, dataset.item_dictionary().size(),
      [&](size_t r, auto add) {
        for (ItemId item : dataset.items(r).raw()) {
          add(static_cast<size_t>(item));
        }
      });
  return index;
}

RecordBitmap QueryIndex::ClauseBitmap(size_t col,
                                      const std::vector<char>& match) const {
  RecordBitmap bitmap(num_records_);
  for (size_t v = 0; v < match.size(); ++v) {
    if (!match[v]) continue;
    size_t n = 0;
    const uint32_t* recs = postings(col, static_cast<ValueId>(v), &n);
    for (size_t i = 0; i < n; ++i) bitmap.Set(recs[i]);
  }
  return bitmap;
}

std::vector<uint32_t> QueryIndex::ItemIntersection(
    const std::vector<ItemId>& items) const {
  if (items.empty()) return {};
  struct List {
    const uint32_t* data;
    size_t size;
  };
  std::vector<List> lists;
  lists.reserve(items.size());
  for (ItemId item : items) {
    List list{};
    list.data = item_postings(item, &list.size);
    lists.push_back(list);
  }
  // Merge starting from the rarest item so the running result only shrinks.
  std::sort(lists.begin(), lists.end(),
            [](const List& a, const List& b) { return a.size < b.size; });
  std::vector<uint32_t> result(lists[0].data, lists[0].data + lists[0].size);
  for (size_t l = 1; l < lists.size() && !result.empty(); ++l) {
    // Branchless linear merge, in place: the write cursor never passes the
    // read cursor, and a record is kept only when both lists hold it.
    const List& other = lists[l];
    size_t kept = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < result.size() && j < other.size) {
      const uint32_t x = result[i];
      const uint32_t y = other.data[j];
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
