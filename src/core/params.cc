#include "core/params.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace secreta {

Status AnonParams::Set(const std::string& name, double value) {
  int* integer = name == "k"                ? &k
                 : name == "m"              ? &m
                 : name == "lra_partitions" ? &lra_partitions
                 : name == "vpa_parts"      ? &vpa_parts
                                            : nullptr;
  double* real = name == "delta" ? &delta : name == "rho" ? &rho : nullptr;
  if (integer == nullptr && real == nullptr) {
    return Status::InvalidArgument("unknown parameter: " + name);
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        StrFormat("%s must be finite, got %g", name.c_str(), value));
  }
  if (real != nullptr) {
    *real = value;
    return Status::OK();
  }
  // Rounds halves away from zero, as lround did, but refuses what an int
  // cannot hold instead of wrapping it.
  double rounded = std::round(value);
  if (rounded < std::numeric_limits<int>::min() ||
      rounded > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        StrFormat("%s must fit in an int, got %.17g", name.c_str(), value));
  }
  *integer = static_cast<int>(rounded);
  return Status::OK();
}

Result<double> AnonParams::Get(const std::string& name) const {
  if (name == "k") return static_cast<double>(k);
  if (name == "m") return static_cast<double>(m);
  if (name == "delta") return delta;
  if (name == "lra_partitions") return static_cast<double>(lra_partitions);
  if (name == "vpa_parts") return static_cast<double>(vpa_parts);
  if (name == "rho") return rho;
  return Status::InvalidArgument("unknown parameter: " + name);
}

Status AnonParams::Validate() const {
  if (k < 2) return Status::InvalidArgument(StrFormat("k must be >= 2, got %d", k));
  if (m < 1) return Status::InvalidArgument(StrFormat("m must be >= 1, got %d", m));
  // Negated comparisons also refuse NaN, for which every comparison is false.
  if (!(delta >= 0) || std::isinf(delta)) {
    return Status::InvalidArgument("delta must be finite and >= 0");
  }
  if (lra_partitions < 1) {
    return Status::InvalidArgument("lra_partitions must be >= 1");
  }
  if (vpa_parts < 1) return Status::InvalidArgument("vpa_parts must be >= 1");
  if (!(rho > 0 && rho <= 1)) {
    return Status::InvalidArgument("rho must be in (0, 1]");
  }
  return Status::OK();
}

}  // namespace secreta
