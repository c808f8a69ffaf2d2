#include "algo/transaction/gen_space.h"

#include <algorithm>

#include "algo/transaction/violation_walk.h"
#include "common/string_util.h"
#include "kernels/kernels.h"

namespace secreta {

GenSpace::GenSpace(std::vector<std::vector<ItemId>> transactions,
                   const Dictionary& item_dict)
    : item_dict_(&item_dict), original_(std::move(transactions)) {
  item_gen_.resize(item_dict.size());
  covers_.reserve(item_dict.size());
  for (size_t i = 0; i < item_dict.size(); ++i) {
    item_gen_[i] = static_cast<int32_t>(i);
    covers_.push_back({static_cast<ItemId>(i)});
  }
  InitFromIdentity();
}

GenSpace::GenSpace(std::vector<std::vector<ItemId>> transactions,
                   const Dictionary& item_dict,
                   const TransactionRecoding& recoding)
    : item_dict_(&item_dict), original_(std::move(transactions)) {
  item_gen_.assign(item_dict.size(), kSuppressedGen);
  for (const auto& gen : recoding.gens) covers_.push_back(gen.covers);
  for (size_t i = 0; i < recoding.item_map.size(); ++i) {
    item_gen_[i] = recoding.item_map[i];
  }
  InitFromIdentity();
}

void GenSpace::InitFromIdentity() {
  live_.clear();
  for (size_t g = 0; g < covers_.size(); ++g) {
    if (!covers_[g].empty()) live_.push_back(static_cast<int32_t>(g));
  }
  support_.assign(covers_.size(), 0);
  occurrences_.assign(covers_.size(), 0);
  gen_rows_.assign(covers_.size(), {});
  records_.resize(original_.size());
  for (size_t r = 0; r < original_.size(); ++r) {
    auto& rec = records_[r];
    rec.clear();
    for (ItemId item : original_[r]) {
      ++total_occurrences_;
      int32_t g = item_gen_[static_cast<size_t>(item)];
      if (g == kSuppressedGen) {
        ++suppressed_occurrences_;
        continue;
      }
      rec.push_back(g);
      ++occurrences_[static_cast<size_t>(g)];
    }
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    for (int32_t g : rec) {
      ++support_[static_cast<size_t>(g)];
      gen_rows_[static_cast<size_t>(g)].push_back(static_cast<uint32_t>(r));
    }
  }
}

void GenSpace::DropLive(int32_t g) {
  auto it = std::lower_bound(live_.begin(), live_.end(), g);
  if (it != live_.end() && *it == g) live_.erase(it);
}

std::string GenSpace::LabelFor(const std::vector<ItemId>& covers) const {
  if (covers.size() == 1) return item_dict_->value(covers[0]);
  if (covers.size() <= 6) {
    std::string out = "{";
    for (size_t i = 0; i < covers.size(); ++i) {
      if (i > 0) out += ',';
      out += item_dict_->value(covers[i]);
    }
    out += '}';
    return out;
  }
  return StrFormat("{%s..%s|%zu}", item_dict_->value(covers.front()).c_str(),
                   item_dict_->value(covers.back()).c_str(), covers.size());
}

int32_t GenSpace::Merge(int32_t a, int32_t b) {
  int32_t g = static_cast<int32_t>(covers_.size());
  std::vector<ItemId> merged;
  merged.reserve(covers_[static_cast<size_t>(a)].size() +
                 covers_[static_cast<size_t>(b)].size());
  std::merge(covers_[static_cast<size_t>(a)].begin(),
             covers_[static_cast<size_t>(a)].end(),
             covers_[static_cast<size_t>(b)].begin(),
             covers_[static_cast<size_t>(b)].end(),
             std::back_inserter(merged));
  for (ItemId item : merged) item_gen_[static_cast<size_t>(item)] = g;
  // The affected rows are exactly those holding a or b.
  const auto& rows_a = gen_rows_[static_cast<size_t>(a)];
  const auto& rows_b = gen_rows_[static_cast<size_t>(b)];
  std::vector<uint32_t> rows;
  rows.reserve(rows_a.size() + rows_b.size());
  std::set_union(rows_a.begin(), rows_a.end(), rows_b.begin(), rows_b.end(),
                 std::back_inserter(rows));
  for (uint32_t r : rows) {
    auto& rec = records_[r];
    rec.erase(std::remove_if(rec.begin(), rec.end(),
                             [&](int32_t x) { return x == a || x == b; }),
              rec.end());
    rec.push_back(g);  // g is the largest gen id yet: the record stays sorted
  }
  covers_.push_back(std::move(merged));
  DropLive(a);
  DropLive(b);
  live_.push_back(g);
  support_.push_back(rows.size());
  gen_rows_.push_back(std::move(rows));
  gen_rows_[static_cast<size_t>(a)].clear();
  gen_rows_[static_cast<size_t>(b)].clear();
  occurrences_.push_back(occurrences_[static_cast<size_t>(a)] +
                         occurrences_[static_cast<size_t>(b)]);
  covers_[static_cast<size_t>(a)].clear();
  covers_[static_cast<size_t>(b)].clear();
  support_[static_cast<size_t>(a)] = 0;
  support_[static_cast<size_t>(b)] = 0;
  occurrences_[static_cast<size_t>(a)] = 0;
  occurrences_[static_cast<size_t>(b)] = 0;
  return g;
}

void GenSpace::Suppress(int32_t g) {
  for (ItemId item : covers_[static_cast<size_t>(g)]) {
    item_gen_[static_cast<size_t>(item)] = kSuppressedGen;
  }
  for (uint32_t r : gen_rows_[static_cast<size_t>(g)]) {
    auto& rec = records_[r];
    rec.erase(std::lower_bound(rec.begin(), rec.end(), g));
  }
  suppressed_occurrences_ += occurrences_[static_cast<size_t>(g)];
  covers_[static_cast<size_t>(g)].clear();
  DropLive(g);
  support_[static_cast<size_t>(g)] = 0;
  occurrences_[static_cast<size_t>(g)] = 0;
  gen_rows_[static_cast<size_t>(g)].clear();
}

std::vector<KmViolation> GenSpace::FindViolations(int m, int k,
                                                  size_t max_violations,
                                                  int32_t from) const {
  // Dead gens and live gens of support 0 have no rows, so the walk over
  // gen_rows_ visits just the live gens that some record holds.
  return WalkKmViolations(gen_rows_, records_, m, k, max_violations, from);
}

double GenSpace::MergeCost(int32_t a, int32_t b) const {
  double denom = num_items() > 1 ? static_cast<double>(num_items() - 1) : 1.0;
  auto penalty = [&](size_t size) {
    return (static_cast<double>(size) - 1.0) / denom;
  };
  size_t sa = covers_[static_cast<size_t>(a)].size();
  size_t sb = covers_[static_cast<size_t>(b)].size();
  double delta =
      static_cast<double>(Occurrences(a)) * (penalty(sa + sb) - penalty(sa)) +
      static_cast<double>(Occurrences(b)) * (penalty(sa + sb) - penalty(sb));
  return total_occurrences_ > 0
             ? delta / static_cast<double>(total_occurrences_)
             : 0.0;
}

double GenSpace::SuppressCost(int32_t g) const {
  double denom = num_items() > 1 ? static_cast<double>(num_items() - 1) : 1.0;
  double p =
      (static_cast<double>(covers_[static_cast<size_t>(g)].size()) - 1.0) /
      denom;
  double delta = static_cast<double>(Occurrences(g)) * (1.0 - p);
  return total_occurrences_ > 0
             ? delta / static_cast<double>(total_occurrences_)
             : 0.0;
}

size_t GenSpace::ItemsetSupport(const std::vector<int32_t>& gens) const {
  for (int32_t g : gens) {
    if (covers_[static_cast<size_t>(g)].empty()) return 0;
  }
  if (gens.empty()) return records_.size();
  if (use_reference_impl_) {
    // Pre-kernel full record scan, kept as the oracle for equivalence tests
    // and A/B benchmarks.
    size_t count = 0;
    for (const auto& rec : records_) {
      bool all = true;
      for (int32_t g : gens) {
        if (!std::binary_search(rec.begin(), rec.end(), g)) {
          all = false;
          break;
        }
      }
      if (all) ++count;
    }
    return count;
  }
  // Posting-list intersection instead of a full record scan: the lists are
  // maintained sorted by Merge/Suppress.
  std::vector<const std::vector<uint32_t>*> lists;
  lists.reserve(gens.size());
  for (int32_t g : gens) lists.push_back(&gen_rows_[static_cast<size_t>(g)]);
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  if (lists.size() == 1) return lists[0]->size();
  if (lists.size() == 2) {
    return kernels::IntersectCount(lists[0]->data(), lists[0]->size(),
                                   lists[1]->data(), lists[1]->size());
  }
  size_t count = 0;
  for (uint32_t r : *lists[0]) {
    bool all = true;
    for (size_t i = 1; i < lists.size(); ++i) {
      if (!std::binary_search(lists[i]->begin(), lists[i]->end(), r)) {
        all = false;
        break;
      }
    }
    if (all) ++count;
  }
  return count;
}

TransactionRecoding GenSpace::Export() const {
  TransactionRecoding out;
  out.suppressed_occurrences = suppressed_occurrences_;
  std::vector<int32_t> remap(covers_.size(), kSuppressedGen);
  for (size_t g = 0; g < covers_.size(); ++g) {
    if (covers_[g].empty()) continue;
    remap[g] = out.AddGen(LabelFor(covers_[g]), covers_[g]);
  }
  out.item_map.resize(num_items());
  for (size_t i = 0; i < num_items(); ++i) {
    int32_t g = item_gen_[i];
    out.item_map[i] = g == kSuppressedGen ? kSuppressedGen
                                          : remap[static_cast<size_t>(g)];
  }
  out.records.reserve(records_.size());
  for (const auto& rec : records_) {
    std::vector<int32_t> mapped;
    mapped.reserve(rec.size());
    for (int32_t g : rec) mapped.push_back(remap[static_cast<size_t>(g)]);
    std::sort(mapped.begin(), mapped.end());
    out.records.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace secreta
