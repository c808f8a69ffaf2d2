#include "data/dataset.h"

#include <algorithm>

#include "common/string_util.h"

namespace secreta {

namespace {

// A transaction cell is one whose trimmed content contains internal spaces.
bool LooksTransactional(std::string_view cell) {
  std::string_view t = Trim(cell);
  return t.find(' ') != std::string_view::npos;
}

}  // namespace

Result<Dataset> Dataset::FromCsv(const csv::CsvTable& table, const Schema& schema) {
  if (table.empty()) return Status::InvalidArgument("CSV table is empty");
  const auto& header = table[0];
  if (header.size() != schema.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "header has %zu columns but schema declares %zu attributes",
        header.size(), schema.num_attributes()));
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (std::string(Trim(header[i])) != schema.attribute(i).name) {
      return Status::InvalidArgument(
          "header column '" + header[i] + "' does not match schema attribute '" +
          schema.attribute(i).name + "'");
    }
  }
  Dataset ds;
  ds.schema_ = schema;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (schema.attribute(i).type != AttributeType::kTransaction) {
      ds.columns_.emplace_back();
      ds.column_attr_.push_back(i);
    }
  }
  for (size_t r = 1; r < table.size(); ++r) {
    SECRETA_RETURN_IF_ERROR(ds.AddRow(table[r]));
  }
  return ds;
}

Result<Dataset> Dataset::FromCsvInferred(const csv::CsvTable& table) {
  if (table.empty()) return Status::InvalidArgument("CSV table is empty");
  const auto& header = table[0];
  size_t num_cols = header.size();
  Schema schema;
  std::optional<size_t> txn_col;
  for (size_t c = 0; c < num_cols; ++c) {
    bool any_transactional = false;
    bool all_numeric = true;
    bool any_data = false;
    for (size_t r = 1; r < table.size(); ++r) {
      if (c >= table[r].size()) continue;
      std::string_view cell = Trim(table[r][c]);
      if (cell.empty()) continue;
      any_data = true;
      if (LooksTransactional(cell)) any_transactional = true;
      if (!LooksNumeric(cell)) all_numeric = false;
    }
    AttributeSpec spec;
    spec.name = std::string(Trim(header[c]));
    if (any_transactional && !txn_col.has_value()) {
      spec.type = AttributeType::kTransaction;
      txn_col = c;
    } else if (any_data && all_numeric) {
      spec.type = AttributeType::kNumeric;
    } else {
      spec.type = AttributeType::kCategorical;
    }
    SECRETA_RETURN_IF_ERROR(schema.AddAttribute(spec));
  }
  return FromCsv(table, schema);
}

Result<Dataset> Dataset::LoadFile(const std::string& path) {
  SECRETA_ASSIGN_OR_RETURN(csv::CsvTable table, csv::ReadCsvFile(path));
  return FromCsvInferred(table);
}

Result<Dataset> Dataset::FromParts(Parts parts) {
  Dataset ds;
  ds.schema_ = std::move(parts.schema);
  size_t relational = 0;
  for (size_t i = 0; i < ds.schema_.num_attributes(); ++i) {
    if (ds.schema_.attribute(i).type != AttributeType::kTransaction) {
      ds.column_attr_.push_back(i);
      ++relational;
    }
  }
  if (parts.dictionaries.size() != relational) {
    return Status::InvalidArgument(
        StrFormat("FromParts: %zu dictionaries for %zu relational attributes",
                  parts.dictionaries.size(), relational));
  }
  if (parts.numeric.size() != relational) {
    return Status::InvalidArgument(
        StrFormat("FromParts: %zu numeric tables for %zu relational attributes",
                  parts.numeric.size(), relational));
  }
  if (parts.cells.size() != parts.num_records * relational) {
    return Status::InvalidArgument(
        StrFormat("FromParts: %zu cells, expected %zu records x %zu columns",
                  parts.cells.size(), parts.num_records, relational));
  }
  ds.columns_.resize(relational);
  for (size_t c = 0; c < relational; ++c) {
    const bool numeric =
        ds.schema_.attribute(ds.column_attr_[c]).type == AttributeType::kNumeric;
    if (numeric &&
        parts.numeric[c].size() != parts.dictionaries[c].size()) {
      return Status::InvalidArgument(StrFormat(
          "FromParts: numeric table of column %zu has %zu entries for a "
          "%zu-entry dictionary",
          c, parts.numeric[c].size(), parts.dictionaries[c].size()));
    }
    if (!numeric && !parts.numeric[c].empty()) {
      return Status::InvalidArgument(StrFormat(
          "FromParts: categorical column %zu carries a numeric table", c));
    }
    ds.columns_[c].dict = std::move(parts.dictionaries[c]);
    ds.columns_[c].numeric = std::move(parts.numeric[c]);
  }
  for (size_t i = 0; i < parts.cells.size(); ++i) {
    const size_t c = i % relational;
    const ValueId id = parts.cells[i];
    if (id < 0 || static_cast<size_t>(id) >= ds.columns_[c].dict.size()) {
      return Status::OutOfRange(StrFormat(
          "FromParts: cell %zu holds id %d outside dictionary of column %zu",
          i, id, c));
    }
  }
  ds.cells_ = std::move(parts.cells);
  if (ds.schema_.has_transaction()) {
    if (parts.transactions.size() != parts.num_records) {
      return Status::InvalidArgument(StrFormat(
          "FromParts: %zu transactions for %zu records",
          parts.transactions.size(), parts.num_records));
    }
    for (const auto& txn : parts.transactions) {
      for (size_t i = 0; i < txn.size(); ++i) {
        if (txn[i] < 0 ||
            static_cast<size_t>(txn[i]) >= parts.item_dictionary.size()) {
          return Status::OutOfRange("FromParts: item id outside dictionary");
        }
        if (i > 0 && txn[i] <= txn[i - 1]) {
          return Status::InvalidArgument(
              "FromParts: transaction items must be sorted and unique");
        }
      }
    }
  } else if (!parts.transactions.empty()) {
    return Status::InvalidArgument(
        "FromParts: transactions supplied without a transaction attribute");
  }
  ds.item_dict_ = std::move(parts.item_dictionary);
  ds.transactions_ = std::move(parts.transactions);
  ds.num_records_ = parts.num_records;
  return ds;
}

namespace {

size_t DictionaryBytes(const Dictionary& dict) {
  // values_ strings + the index entries; close enough for a budget baseline.
  size_t bytes = 0;
  for (const std::string& v : dict.values()) {
    bytes += sizeof(std::string) + v.capacity();
    bytes += v.size() + 2 * sizeof(void*) + sizeof(ValueId);  // hash node
  }
  return bytes;
}

}  // namespace

size_t Dataset::MemoryBytes() const {
  size_t bytes = cells_.capacity() * sizeof(ValueId);
  for (const Column& col : columns_) {
    bytes += DictionaryBytes(col.dict);
    bytes += col.numeric.capacity() * sizeof(double);
  }
  bytes += DictionaryBytes(item_dict_);
  bytes += transactions_.capacity() * sizeof(std::vector<ItemId>);
  for (const auto& txn : transactions_) {
    bytes += txn.capacity() * sizeof(ItemId);
  }
  return bytes;
}

Result<Dataset> Dataset::LoadFile(const std::string& path, const Schema& schema) {
  SECRETA_ASSIGN_OR_RETURN(csv::CsvTable table, csv::ReadCsvFile(path));
  return FromCsv(table, schema);
}

csv::CsvTable Dataset::ToCsv() const {
  csv::CsvTable table;
  std::vector<std::string> header;
  for (const auto& spec : schema_.attributes()) header.push_back(spec.name);
  table.push_back(std::move(header));
  for (size_t r = 0; r < num_records_; ++r) {
    table.push_back(CsvRow(r));
  }
  return table;
}

std::vector<std::string> Dataset::CsvRow(size_t row) const {
  std::vector<std::string> cells;
  cells.reserve(schema_.num_attributes());
  size_t col = 0;
  for (size_t a = 0; a < schema_.num_attributes(); ++a) {
    if (schema_.attribute(a).type == AttributeType::kTransaction) {
      std::vector<std::string> items;
      for (ItemId it : transactions_[row]) items.push_back(item_dict_.value(it));
      cells.push_back(Join(items, " "));
    } else {
      cells.push_back(std::string(value_string(row, col).raw()));
      ++col;
    }
  }
  return cells;
}

void Dataset::AppendCsvLine(size_t row, std::string* out) const {
  const csv::CsvOptions options;
  size_t col = 0;
  for (size_t a = 0; a < schema_.num_attributes(); ++a) {
    if (a > 0) out->push_back(options.delimiter);
    if (schema_.attribute(a).type == AttributeType::kTransaction) {
      // Quoting looks at the whole space-joined cell: join it in place and
      // write it again through AppendCsvField only when it needs quotes.
      const size_t start = out->size();
      const std::vector<ItemId>& items = transactions_[row];
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out->push_back(' ');
        out->append(item_dict_.value(items[i]));
      }
      if (csv::NeedsQuoting(std::string_view(*out).substr(start), options)) {
        const std::string cell = out->substr(start);
        out->resize(start);
        csv::AppendCsvField(cell, out, options);
      }
    } else {
      csv::AppendCsvField(
          columns_[col].dict.value(cells_[row * columns_.size() + col]), out,
          options);
      ++col;
    }
  }
}

Result<size_t> Dataset::ColumnOf(size_t attr_index) const {
  for (size_t c = 0; c < column_attr_.size(); ++c) {
    if (column_attr_[c] == attr_index) return c;
  }
  return Status::NotFound(StrFormat(
      "attribute %zu is not a relational column", attr_index));
}

Result<size_t> Dataset::ColumnByName(const std::string& name) const {
  auto attr = schema_.FindAttribute(name);
  if (!attr.has_value()) return Status::NotFound("no attribute named " + name);
  return ColumnOf(*attr);
}

Result<ValueId> Dataset::EncodeText(std::string_view text,
                                    const AttributeSpec& spec,
                                    Dictionary* dict,
                                    std::vector<double>* numeric) {
  std::string cell(Trim(text));
  if (spec.type == AttributeType::kNumeric && !dict->Contains(cell)) {
    auto parsed = ParseDouble(cell);
    if (!parsed.ok()) {
      return Status::InvalidArgument("non-numeric value '" + cell +
                                     "' in numeric attribute '" + spec.name +
                                     "'");
    }
    ValueId id = dict->GetOrAdd(cell);
    numeric->resize(dict->size());
    (*numeric)[static_cast<size_t>(id)] = parsed.value();
    return id;
  }
  return dict->GetOrAdd(cell);
}

Status Dataset::EncodeCell(size_t col, const std::string& text, ValueId* out_id) {
  Column& column = columns_[col];
  SECRETA_ASSIGN_OR_RETURN(
      *out_id, EncodeText(text, schema_.attribute(column_attr_[col]),
                          &column.dict, &column.numeric));
  return Status::OK();
}

Status Dataset::EncodeTransaction(const std::string& text,
                                  std::vector<ItemId>* out) {
  out->clear();
  for (const std::string& token : SplitWhitespace(text)) {
    out->push_back(item_dict_.GetOrAdd(token));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return Status::OK();
}

Status Dataset::SetCell(size_t row, size_t attr_index, const std::string& text) {
  if (row >= num_records_) return Status::OutOfRange("row out of range");
  if (attr_index >= schema_.num_attributes()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (schema_.attribute(attr_index).type == AttributeType::kTransaction) {
    return EncodeTransaction(text, &transactions_[row]);
  }
  SECRETA_ASSIGN_OR_RETURN(size_t col, ColumnOf(attr_index));
  ValueId id = kInvalidValue;
  SECRETA_RETURN_IF_ERROR(EncodeCell(col, text, &id));
  cells_[row * columns_.size() + col] = id;
  return Status::OK();
}

Status Dataset::AddRow(const std::vector<std::string>& fields) {
  if (fields.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "row has %zu fields, schema has %zu attributes", fields.size(),
        schema_.num_attributes()));
  }
  std::vector<ValueId> encoded(columns_.size(), kInvalidValue);
  std::vector<ItemId> items;
  size_t col = 0;
  for (size_t a = 0; a < schema_.num_attributes(); ++a) {
    if (schema_.attribute(a).type == AttributeType::kTransaction) {
      SECRETA_RETURN_IF_ERROR(EncodeTransaction(fields[a], &items));
    } else {
      SECRETA_RETURN_IF_ERROR(EncodeCell(col, fields[a], &encoded[col]));
      ++col;
    }
  }
  cells_.insert(cells_.end(), encoded.begin(), encoded.end());
  transactions_.push_back(std::move(items));
  ++num_records_;
  return Status::OK();
}

Status Dataset::DeleteRow(size_t row) {
  if (row >= num_records_) return Status::OutOfRange("row out of range");
  size_t stride = columns_.size();
  cells_.erase(cells_.begin() + static_cast<ptrdiff_t>(row * stride),
               cells_.begin() + static_cast<ptrdiff_t>((row + 1) * stride));
  transactions_.erase(transactions_.begin() + static_cast<ptrdiff_t>(row));
  --num_records_;
  return Status::OK();
}

Status Dataset::RenameAttribute(size_t attr_index, const std::string& new_name) {
  return schema_.RenameAttribute(attr_index, new_name);
}

Status Dataset::RemoveAttribute(size_t attr_index) {
  if (attr_index >= schema_.num_attributes()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (schema_.attribute(attr_index).type == AttributeType::kTransaction) {
    for (auto& txn : transactions_) txn.clear();
    item_dict_ = Dictionary();
    return schema_.RemoveAttribute(attr_index);
  }
  SECRETA_ASSIGN_OR_RETURN(size_t col, ColumnOf(attr_index));
  size_t stride = columns_.size();
  std::vector<ValueId> next;
  next.reserve(num_records_ * (stride - 1));
  for (size_t r = 0; r < num_records_; ++r) {
    for (size_t c = 0; c < stride; ++c) {
      if (c != col) next.push_back(cells_[r * stride + c]);
    }
  }
  cells_ = std::move(next);
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(col));
  column_attr_.erase(column_attr_.begin() + static_cast<ptrdiff_t>(col));
  SECRETA_RETURN_IF_ERROR(schema_.RemoveAttribute(attr_index));
  for (auto& a : column_attr_) {
    if (a > attr_index) --a;
  }
  return Status::OK();
}

Status Dataset::AddAttribute(const AttributeSpec& spec, const std::string& fill) {
  if (spec.type == AttributeType::kTransaction) {
    return Status::InvalidArgument(
        "adding a transaction attribute after load is not supported");
  }
  SECRETA_RETURN_IF_ERROR(schema_.AddAttribute(spec));
  columns_.emplace_back();
  column_attr_.push_back(schema_.num_attributes() - 1);
  size_t col = columns_.size() - 1;
  ValueId id = kInvalidValue;
  SECRETA_RETURN_IF_ERROR(EncodeCell(col, fill, &id));
  size_t old_stride = columns_.size() - 1;
  std::vector<ValueId> next;
  next.reserve(num_records_ * columns_.size());
  for (size_t r = 0; r < num_records_; ++r) {
    for (size_t c = 0; c < old_stride; ++c) next.push_back(cells_[r * old_stride + c]);
    next.push_back(id);
  }
  cells_ = std::move(next);
  return Status::OK();
}

std::vector<ValueId> Dataset::SortedDomain(size_t col) const {
  const Column& column = columns_[col];
  std::vector<ValueId> ids(column.dict.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ValueId>(i);
  if (is_numeric(col)) {
    std::sort(ids.begin(), ids.end(), [&](ValueId a, ValueId b) {
      return column.numeric[static_cast<size_t>(a)] <
             column.numeric[static_cast<size_t>(b)];
    });
  } else {
    std::sort(ids.begin(), ids.end(), [&](ValueId a, ValueId b) {
      return column.dict.value(a) < column.dict.value(b);
    });
  }
  return ids;
}

Status Dataset::SetTransactions(std::vector<std::vector<ItemId>> transactions) {
  if (transactions.size() != num_records_) {
    return Status::InvalidArgument("transaction count != record count");
  }
  transactions_ = std::move(transactions);
  return Status::OK();
}

}  // namespace secreta
