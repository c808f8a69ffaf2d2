#include "core/audit.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "core/guarantees.h"

namespace secreta {

Result<AuditReport> AuditAnonymizedDataset(const Dataset& anonymized, int k,
                                           int m, bool check_km_per_class,
                                           bool check_k) {
  if (k < 1 || m < 0) return Status::InvalidArgument("bad audit parameters");
  AuditReport report;
  size_t n = anonymized.num_records();

  // Relational classes by published label vectors.
  std::map<std::vector<ValueId>, std::vector<size_t>> classes;
  bool has_relational = check_k && anonymized.num_relational() > 0;
  report.k_checked = has_relational;
  if (has_relational) {
    for (size_t r = 0; r < n; ++r) {
      std::vector<ValueId> key;
      key.reserve(anonymized.num_relational());
      for (size_t col = 0; col < anonymized.num_relational(); ++col) {
        key.push_back(anonymized.value(r, col).raw());
      }
      classes[std::move(key)].push_back(r);
    }
    report.min_class_size = n;
    for (const auto& [_, rows] : classes) {
      report.min_class_size = std::min(report.min_class_size, rows.size());
    }
    report.k_anonymous = report.min_class_size >= static_cast<size_t>(k);
    if (!report.k_anonymous) {
      report.details += StrFormat(
          "smallest relational class has %zu < %d records; ",
          report.min_class_size, k);
    }
  } else {
    report.k_anonymous = true;  // vacuous
  }

  // k^m over published item labels. Published items are opaque tokens here,
  // which is exactly the recipient's view of generalized items.
  report.km_anonymous = true;
  report.km_checked = anonymized.has_transaction() && m >= 1;
  if (report.km_checked) {
    // Records as ItemId vectors (already dictionary-encoded).
    const auto& records32 = anonymized.transactions().raw();
    std::vector<std::vector<int32_t>> records(records32.begin(),
                                              records32.end());
    auto check = [&](const std::vector<size_t>* subset) {
      auto violations = FindKmViolations(records, k, m, subset, 1);
      if (!violations.empty()) {
        report.km_anonymous = false;
        report.worst_itemset_support =
            std::max(report.worst_itemset_support, violations[0].support);
      }
    };
    if (check_km_per_class && has_relational) {
      for (const auto& [_, rows] : classes) check(&rows);
    } else {
      check(nullptr);
    }
    if (!report.km_anonymous) {
      report.details += StrFormat(
          "an itemset of size <= %d has support %zu in (0, %d); ", m,
          report.worst_itemset_support, k);
    }
  }
  if (report.details.empty()) report.details = "ok";
  return report;
}

}  // namespace secreta
