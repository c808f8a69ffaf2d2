#include "core/equivalence.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/string_util.h"

namespace secreta {

namespace {

// Groups the `num_records` rows of `width` node ids laid out back to back in
// `rows`. One pass gives each record its class id from an open-addressing
// table of class ids, where a key is compared through its class's first
// row; then one counting sort lists each class's records.
EquivalenceClasses GroupRows(std::span<const NodeId> rows, size_t num_records,
                             size_t width) {
  EquivalenceClasses out;
  out.group_of.resize(num_records);
  auto row = [&](size_t r) { return rows.subspan(r * width, width); };
  // At most one class per record, so at least half the slots stay empty.
  // A slot holds a class id and its key's low hash bits, which skip most
  // mismatched comparisons. FNV-1a's high bits barely depend on the last
  // word, so the slot index takes the high bits of the hash times a
  // Fibonacci multiplier, which every bit reaches.
  struct Slot {
    uint32_t group = UINT32_MAX;
    uint32_t tag = 0;
  };
  size_t capacity = std::bit_ceil(std::max<size_t>(2 * num_records, 2));
  int shift = 64 - std::countr_zero(capacity);
  std::vector<Slot> slots(capacity);
  std::vector<uint32_t> first_row;  // class -> its first record
  for (size_t r = 0; r < num_records; ++r) {
    std::span<const NodeId> key = row(r);
    uint64_t hash = IntVectorHash::Of(key);
    uint32_t tag = static_cast<uint32_t>(hash);
    size_t i = static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift);
    while (true) {
      Slot& slot = slots[i];
      if (slot.group == UINT32_MAX) {
        slot = {static_cast<uint32_t>(first_row.size()), tag};
        first_row.push_back(static_cast<uint32_t>(r));
        break;
      }
      if (slot.tag == tag &&
          std::ranges::equal(row(first_row[slot.group]), key)) {
        break;
      }
      i = (i + 1) & (capacity - 1);
    }
    out.group_of[r] = slots[i].group;
  }
  out.groups = Csr::Build(first_row.size(), [&](auto&& emit) {
    for (size_t r = 0; r < num_records; ++r) {
      emit(out.group_of[r], static_cast<uint32_t>(r));
    }
  });
  return out;
}

}  // namespace

size_t EquivalenceClasses::MinGroupSize() const {
  size_t min_size = 0;
  for (size_t c = 0; c < num_groups(); ++c) {
    size_t size = groups[c].size();
    if (min_size == 0 || size < min_size) min_size = size;
  }
  return min_size;
}

EquivalenceClasses GroupByRecoding(const RelationalRecoding& recoding) {
  size_t n = recoding.num_records();
  size_t q = recoding.num_qi();
  return GroupRows({recoding.row(0), n * q}, n, q);
}

EquivalenceClasses GroupByOriginal(const RelationalContext& context) {
  size_t n = context.num_records();
  size_t q = context.num_qi();
  std::vector<NodeId> leaves(n * q);
  for (size_t r = 0; r < n; ++r) {
    for (size_t qi = 0; qi < q; ++qi) leaves[r * q + qi] = context.Leaf(r, qi);
  }
  return GroupRows(leaves, n, q);
}

}  // namespace secreta
