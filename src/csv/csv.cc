#include "csv/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace secreta::csv {

namespace {

// State machine over the full text so quoted fields can span newlines.
Result<CsvTable> ParseImpl(std::string_view text, const CsvOptions& options,
                           bool single_line) {
  CsvTable rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // true once the current row has any content
  bool row_is_comment = false;

  auto end_field = [&] {
    row.push_back(field);
    field.clear();
  };
  auto end_row = [&] {
    if (field_started || !row.empty() || !field.empty()) {
      end_field();
      bool blank = row.size() == 1 && Trim(row[0]).empty();
      if (!(row_is_comment) && !(options.skip_blank_lines && blank)) {
        rows.push_back(std::move(row));
      }
      row.clear();
    }
    field_started = false;
    row_is_comment = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == options.quote) {
        if (i + 1 < text.size() && text[i + 1] == options.quote) {
          field += options.quote;
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == options.quote) {
      in_quotes = true;
      field_started = true;
    } else if (c == options.delimiter) {
      end_field();
      field_started = true;
    } else if (c == '\r') {
      // swallow; \r\n handled at \n
    } else if (c == '\n') {
      if (single_line) {
        return Status::InvalidArgument("unexpected newline in CSV line");
      }
      end_row();
    } else {
      if (!field_started && options.comment != '\0' && c == options.comment &&
          field.empty() && row.empty()) {
        row_is_comment = true;
      }
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quote in CSV");
  end_row();
  return rows;
}

}  // namespace

Result<CsvTable> ParseCsv(std::string_view text, const CsvOptions& options) {
  return ParseImpl(text, options, /*single_line=*/false);
}

Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              const CsvOptions& options) {
  SECRETA_ASSIGN_OR_RETURN(CsvTable rows, ParseImpl(line, options, true));
  if (rows.empty()) return std::vector<std::string>{};
  return std::move(rows[0]);
}

bool NeedsQuoting(std::string_view field, const CsvOptions& options) {
  if (field.empty()) return false;
  for (char c : field) {
    if (c == options.delimiter || c == options.quote || c == '\n' || c == '\r') {
      return true;
    }
  }
  // Preserve significant leading/trailing whitespace.
  return field.front() == ' ' || field.back() == ' ';
}

void AppendCsvField(std::string_view field, std::string* out,
                    const CsvOptions& options) {
  if (!NeedsQuoting(field, options)) {
    out->append(field);
    return;
  }
  out->push_back(options.quote);
  for (char c : field) {
    out->push_back(c);
    if (c == options.quote) out->push_back(options.quote);
  }
  out->push_back(options.quote);
}

std::string WriteCsvLine(const std::vector<std::string>& row,
                         const CsvOptions& options) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += options.delimiter;
    AppendCsvField(row[i], &out, options);
  }
  return out;
}

std::string WriteCsv(const CsvTable& rows, const CsvOptions& options) {
  std::string out;
  for (const auto& row : rows) {
    out += WriteCsvLine(row, options);
    out += '\n';
  }
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("error reading file: " + path);
  return buf.str();
}

Status WriteFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open file for writing: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("error writing file: " + path);
  return Status::OK();
}

Result<CsvTable> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  SECRETA_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseCsv(text, options);
}

}  // namespace secreta::csv
