// RFC-4180-style CSV reading and writing. The Dataset Editor, hierarchy,
// policy and workload loaders all parse through this module.

#ifndef SECRETA_CSV_CSV_H_
#define SECRETA_CSV_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace secreta::csv {

/// Parse options for CSV content.
struct CsvOptions {
  char delimiter = ',';
  char quote = '"';
  /// Skip lines that are empty after trimming.
  bool skip_blank_lines = true;
  /// Lines starting with this character (outside quotes) are comments;
  /// '\0' disables comment handling.
  char comment = '#';
};

/// A parsed CSV document: rows of string fields.
using CsvTable = std::vector<std::vector<std::string>>;

/// Parses CSV text. Quoted fields may contain delimiters, doubled quotes
/// ("" -> ") and embedded newlines.
Result<CsvTable> ParseCsv(std::string_view text, const CsvOptions& options = {});

/// Parses a single CSV line (no embedded newlines).
Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              const CsvOptions& options = {});

/// Serializes rows to CSV text, quoting fields when needed.
std::string WriteCsv(const CsvTable& rows, const CsvOptions& options = {});

/// Serializes a single row (no trailing newline).
std::string WriteCsvLine(const std::vector<std::string>& row,
                         const CsvOptions& options = {});

/// True when `field` must be quoted on output: it holds the delimiter, the
/// quote, a newline or a carriage return, or begins or ends with a space.
bool NeedsQuoting(std::string_view field, const CsvOptions& options = {});

/// Appends `field` to `*out`, quoted with doubled inner quotes when
/// NeedsQuoting. Every CSV writer (WriteCsvLine, Dataset::AppendCsvLine)
/// writes its fields through this one function.
void AppendCsvField(std::string_view field, std::string* out,
                    const CsvOptions& options = {});

/// Reads a whole file into a string.
Result<std::string> ReadFile(const std::string& path);

/// Writes `content` to `path`, replacing any existing file.
Status WriteFile(const std::string& path, std::string_view content);

/// Convenience: ReadFile + ParseCsv.
Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = {});

}  // namespace secreta::csv

#endif  // SECRETA_CSV_CSV_H_
