#include "tests/oracle/anonymized_dataset_oracle.h"

#include <string>
#include <vector>

#include "common/string_util.h"
#include "csv/csv.h"

namespace secreta {
namespace oracle {

Result<Dataset> AnonymizedDatasetByRows(const Dataset& original,
                                        const RelationalContext* rel_context,
                                        const RelationalRecoding* relational,
                                        const TransactionRecoding* transaction) {
  if (relational != nullptr && rel_context == nullptr) {
    return Status::InvalidArgument(
        "relational recoding requires a relational context");
  }
  Schema schema;
  for (size_t a = 0; a < original.schema().num_attributes(); ++a) {
    AttributeSpec spec = original.schema().attribute(a);
    if (relational != nullptr && spec.type == AttributeType::kNumeric &&
        spec.role == AttributeRole::kQuasiIdentifier) {
      spec.type = AttributeType::kCategorical;
    }
    SECRETA_RETURN_IF_ERROR(schema.AddAttribute(spec));
  }
  std::vector<size_t> qi_of_column(original.num_relational(), SIZE_MAX);
  if (rel_context != nullptr) {
    for (size_t qi = 0; qi < rel_context->num_qi(); ++qi) {
      qi_of_column[rel_context->qi_column(qi)] = qi;
    }
  }

  csv::CsvTable header_only;
  std::vector<std::string> header;
  for (const auto& spec : schema.attributes()) header.push_back(spec.name);
  header_only.push_back(std::move(header));
  SECRETA_ASSIGN_OR_RETURN(Dataset anonymized,
                           Dataset::FromCsv(header_only, schema));
  std::vector<std::string> row;
  for (size_t r = 0; r < original.num_records(); ++r) {
    row.clear();
    size_t col = 0;
    for (size_t a = 0; a < original.schema().num_attributes(); ++a) {
      if (original.schema().attribute(a).type == AttributeType::kTransaction) {
        std::vector<std::string> labels;
        if (transaction != nullptr) {
          for (int32_t gen : transaction->records[r]) {
            labels.push_back(transaction->gens[static_cast<size_t>(gen)].label);
          }
        } else {
          for (ItemId item : original.items(r).raw()) {
            labels.push_back(original.item_dictionary().value(item));
          }
        }
        row.push_back(Join(labels, " "));
      } else {
        if (relational != nullptr && qi_of_column[col] != SIZE_MAX) {
          const size_t qi = qi_of_column[col];
          row.push_back(rel_context->hierarchy(qi).label(relational->at(r, qi)));
        } else {
          row.push_back(std::string(original.value_string(r, col).raw()));
        }
        ++col;
      }
    }
    SECRETA_RETURN_IF_ERROR(anonymized.AddRow(row));
  }
  return anonymized;
}

}  // namespace oracle
}  // namespace secreta
