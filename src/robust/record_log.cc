#include "robust/record_log.h"

#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/string_util.h"

namespace secreta {

constexpr const char* kVersion = "v1";

Status OpenRecordLog(const std::string& path, const char* magic,
                     const char* pin_names, const std::vector<uint64_t>& pins,
                     const std::function<bool(std::istream&)>& parse,
                     std::ofstream* out) {
  std::vector<std::string> expected;
  for (uint64_t pin : pins) expected.push_back(U64Hex(pin));
  bool have_header = false;
  std::streamoff end = 0;  // of the last complete record
  {
    std::ifstream in(path);
    std::string line;
    if (in && std::getline(in, line)) {
      std::vector<std::string> fields = Split(line, '\t');
      if (in.eof() || fields.size() != 2 + pins.size() ||
          fields[0] != magic || fields[1] != kVersion) {
        return Status::FailedPrecondition(
            StrFormat("%s is not a %s %s file; delete it to start over",
                      path.c_str(), kVersion, magic));
      }
      fields.erase(fields.begin(), fields.begin() + 2);
      if (fields != expected) {
        return Status::FailedPrecondition(StrFormat(
            "%s %s was written for a different %s (recorded %s, current %s)",
            magic, path.c_str(), pin_names, Join(fields, "/").c_str(),
            Join(expected, "/").c_str()));
      }
      have_header = true;
      do {
        end = in.tellg();
      } while (parse(in));
    }
  }
  // Cut a torn tail: a record appended after it would be glued to it and,
  // like everything after it, never load again.
  if (have_header) {
    std::error_code error;
    const uintmax_t size = std::filesystem::file_size(path, error);
    if (!error && size > static_cast<uintmax_t>(end)) {
      std::filesystem::resize_file(path, static_cast<uintmax_t>(end), error);
    }
    if (error) {
      return Status::IOError("cannot cut the torn tail of " + path + ": " +
                             error.message());
    }
  }
  out->open(path, std::ios::app);
  if (!*out) return Status::IOError("cannot open for append: " + path);
  if (!have_header) {
    *out << magic << '\t' << kVersion << '\t' << Join(expected, "\t") << '\n'
         << std::flush;
    if (!*out) return Status::IOError("cannot write the header of " + path);
  }
  return Status::OK();
}

bool ReadRecordLine(std::istream& in, std::string* line) {
  // getline sets eofbit only when the line ran into the end of the file.
  return std::getline(in, *line) && !in.eof();
}

std::string U64Hex(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

bool DecodeU64Hex(const std::string& field, uint64_t* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(field.c_str(), &end, 16);
  return end != nullptr && *end == '\0';
}

bool DecodeU64(const std::string& field, uint64_t* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(field.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

std::string EncodeDouble(double value) { return StrFormat("%a", value); }

bool DecodeDouble(const std::string& field, double* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  return end != nullptr && *end == '\0';
}

}  // namespace secreta
