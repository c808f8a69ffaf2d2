// The dataset model: dictionary-encoded relational columns plus an optional
// transaction (set-valued) column. This is the backend of the paper's Dataset
// Editor: loading, cell edits, row/attribute add/delete, and CSV export.

#ifndef SECRETA_DATA_DATASET_H_
#define SECRETA_DATA_DATASET_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/sensitive.h"
#include "common/status.h"
#include "csv/csv.h"
#include "data/dictionary.h"
#include "data/schema.h"

namespace secreta {

/// \brief An in-memory dataset with relational and/or transaction attributes.
///
/// Relational cells are stored as dense `ValueId`s into per-attribute
/// dictionaries; numeric attributes additionally keep the parsed double for
/// each dictionary entry. The transaction attribute stores a sorted,
/// de-duplicated `ItemId` set per record. In CSV files the transaction cell
/// holds space-separated items ("flu cough fever").
class Dataset {
 public:
  Dataset() = default;

  /// Builds a dataset from parsed CSV rows. The first row must be a header
  /// whose names match `schema` (same order).
  static Result<Dataset> FromCsv(const csv::CsvTable& table, const Schema& schema);

  /// Builds a dataset from parsed CSV rows, inferring the schema: a column
  /// with any multi-item cell (space-separated) is the transaction attribute
  /// (at most one allowed), an all-numeric column is numeric, anything else
  /// is categorical. All relational attributes default to quasi-identifiers.
  static Result<Dataset> FromCsvInferred(const csv::CsvTable& table);

  /// Loads a CSV file (convenience: ReadCsvFile + FromCsvInferred/FromCsv).
  static Result<Dataset> LoadFile(const std::string& path);
  static Result<Dataset> LoadFile(const std::string& path, const Schema& schema);

  /// Pre-encoded building blocks, as produced by data/column_provider.h
  /// backends (binary readers, shard materialization). Dictionaries may be
  /// global supersets of the values actually referenced — a shard keeps the
  /// whole dataset's dictionaries so ids (and therefore algorithm decisions)
  /// are identical across every partitioning.
  struct Parts {
    Schema schema;
    /// One per relational attribute, schema order.
    std::vector<Dictionary> dictionaries;
    /// Parallel to `dictionaries`; one double per dictionary id for numeric
    /// attributes, empty for categorical ones.
    std::vector<std::vector<double>> numeric;
    /// Row-major ValueIds, stride = number of relational attributes.
    std::vector<ValueId> cells;
    Dictionary item_dictionary;
    /// One sorted unique ItemId set per record when the schema has a
    /// transaction attribute; empty otherwise.
    std::vector<std::vector<ItemId>> transactions;
    size_t num_records = 0;
  };

  /// Assembles a dataset from pre-encoded parts, validating id ranges,
  /// strides and numeric-table alignment.
  static Result<Dataset> FromParts(Parts parts);

  /// Approximate heap footprint of the decoded representation (cells,
  /// transactions, dictionaries, numeric tables). This is the in-memory
  /// baseline that out-of-core runs are gated against (bench/shard_bench.cc).
  size_t MemoryBytes() const;

  /// Serializes to CSV rows (header + data), inverse of FromCsv. Tainted at
  /// the annotation level only (the table type is shared with the CSV
  /// layer): callers are raw-side storage/export code by construction.
  SECRETA_SENSITIVE csv::CsvTable ToCsv() const;

  /// One data row of ToCsv() (schema order, transaction cells space-joined)
  /// without materializing the whole table — the out-of-core serialization
  /// path streams records through this instead of ToCsv().
  SECRETA_SENSITIVE std::vector<std::string> CsvRow(size_t row) const;

  /// Appends row `row`'s CSV line, without a newline, to `*out`: byte for
  /// byte csv::WriteCsvLine(CsvRow(row)), written from the ids without
  /// building the row's strings. Sharded runs write release lines this way.
  SECRETA_SENSITIVE void AppendCsvLine(size_t row, std::string* out) const;

  /// Encodes one relational cell's text the way AddRow does: trims it and
  /// returns the id of the equal string in `dict`, adding it if absent. For
  /// a numeric `spec`, a new string is parsed into `numeric` (indexed by
  /// id); a string that is not a number is InvalidArgument.
  static Result<ValueId> EncodeText(std::string_view text,
                                    const AttributeSpec& spec,
                                    Dictionary* dict,
                                    std::vector<double>* numeric);

  // -- shape ----------------------------------------------------------------

  const Schema& schema() const { return schema_; }
  size_t num_records() const { return num_records_; }
  size_t num_relational() const { return columns_.size(); }
  bool has_transaction() const { return schema_.has_transaction(); }

  /// Relational column index for schema attribute `attr_index`; error if the
  /// attribute is the transaction attribute.
  Result<size_t> ColumnOf(size_t attr_index) const;
  /// Relational column index for the attribute named `name`.
  Result<size_t> ColumnByName(const std::string& name) const;
  /// Schema attribute index of relational column `col`.
  size_t AttributeOfColumn(size_t col) const { return column_attr_[col]; }

  // -- relational access ----------------------------------------------------
  //
  // Cell accessors return privacy-tainted values (common/sensitive.h): a
  // record's cells are the raw microdata the published guarantee protects.
  // Engine-side modules unwrap with .raw(); everything else receives only
  // declassified (recoded/published) values — enforced by the compiler (no
  // implicit conversions) plus tools/lint/check_privacy_flow.py.

  /// Dictionary-encoded value of record `row` in relational column `col`.
  SECRETA_SENSITIVE Sensitive<ValueId> value(size_t row, size_t col) const {
    return Sensitive<ValueId>(cells_[row * columns_.size() + col]);
  }
  /// String form of value(row, col); the view borrows dictionary storage.
  SECRETA_SENSITIVE Sensitive<std::string_view> value_string(
      size_t row, size_t col) const {
    return Sensitive<std::string_view>(
        columns_[col].dict.value(cells_[row * columns_.size() + col]));
  }
  /// Dictionary of relational column `col`.
  const Dictionary& dictionary(size_t col) const { return columns_[col].dict; }
  /// True if relational column `col` is numeric.
  bool is_numeric(size_t col) const {
    return schema_.attribute(column_attr_[col]).type == AttributeType::kNumeric;
  }
  /// Parsed numeric value of dictionary entry `id` in numeric column `col`.
  SECRETA_SENSITIVE Sensitive<double> numeric_value(size_t col,
                                                    ValueId id) const {
    return Sensitive<double>(columns_[col].numeric[static_cast<size_t>(id)]);
  }

  // -- transaction access ---------------------------------------------------

  /// Item dictionary shared by all transaction cells.
  const Dictionary& item_dictionary() const { return item_dict_; }
  /// Sorted unique items of record `row` (empty if no transaction attribute).
  SECRETA_SENSITIVE SensitiveSpan<ItemId> items(size_t row) const {
    return SensitiveSpan<ItemId>(transactions_[row]);
  }
  /// All transactions (size == num_records when has_transaction()).
  SECRETA_SENSITIVE SensitiveSpan<std::vector<ItemId>> transactions() const {
    return SensitiveSpan<std::vector<ItemId>>(transactions_);
  }

  // -- Dataset Editor operations ---------------------------------------------

  /// Replaces the cell of `row` / schema attribute `attr_index` with the value
  /// parsed from `text` (for the transaction attribute: space-separated items).
  Status SetCell(size_t row, size_t attr_index, const std::string& text);

  /// Appends a record given one string per schema attribute.
  Status AddRow(const std::vector<std::string>& fields);

  /// Deletes record `row`.
  Status DeleteRow(size_t row);

  /// Renames schema attribute `attr_index`.
  Status RenameAttribute(size_t attr_index, const std::string& new_name);

  /// Removes schema attribute `attr_index` and its data.
  Status RemoveAttribute(size_t attr_index);

  /// Appends a relational attribute, filling existing records with `fill`.
  Status AddAttribute(const AttributeSpec& spec, const std::string& fill);

  // -- helpers used by anonymizers -------------------------------------------

  /// Ids of numeric column `col` sorted ascending by numeric value; for
  /// categorical columns, ids sorted lexicographically by string.
  std::vector<ValueId> SortedDomain(size_t col) const;

  /// Replaces the stored transactions (used by RT pipelines when rebuilding
  /// outputs). `transactions` must have num_records() entries.
  Status SetTransactions(std::vector<std::vector<ItemId>> transactions);

 private:
  struct Column {
    Dictionary dict;
    std::vector<double> numeric;  // aligned with dict ids; numeric columns only
  };

  // Appends the encoded value of `text` for column `col` into `out_id`.
  Status EncodeCell(size_t col, const std::string& text, ValueId* out_id);
  Status EncodeTransaction(const std::string& text, std::vector<ItemId>* out);

  Schema schema_;
  std::vector<Column> columns_;     // relational columns in schema order
  std::vector<size_t> column_attr_; // schema attribute index per column
  std::vector<ValueId> cells_;      // row-major, stride = columns_.size()
  Dictionary item_dict_;
  std::vector<std::vector<ItemId>> transactions_;  // one per record
  size_t num_records_ = 0;
};

}  // namespace secreta

#endif  // SECRETA_DATA_DATASET_H_
