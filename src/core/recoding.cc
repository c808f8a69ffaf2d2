#include "core/recoding.h"

#include <algorithm>
#include <cstdint>

#include "common/string_util.h"

namespace secreta {

namespace {

// The item ids of each transaction source (a gen, or an original item in a
// pass-through column): its text split on whitespace, each token taking the
// item id the dictionary gives it. Filled on a source's first use, so new
// tokens enter the dictionary in record order.
class TokenIds {
 public:
  explicit TokenIds(size_t num_sources) : ids_(num_sources), seen_(num_sources) {}

  const std::vector<ItemId>& Of(size_t source, std::string_view text,
                                Dictionary* dict) {
    if (!seen_[source]) {
      seen_[source] = 1;
      for (const std::string& token : SplitWhitespace(text)) {
        ids_[source].push_back(dict->GetOrAdd(token));
      }
    }
    return ids_[source];
  }

 private:
  std::vector<std::vector<ItemId>> ids_;
  std::vector<char> seen_;
};

}  // namespace

Result<Dataset> BuildAnonymizedDataset(const Dataset& original,
                                       const RelationalContext* rel_context,
                                       const RelationalRecoding* relational,
                                       const TransactionRecoding* transaction) {
  if (relational != nullptr && rel_context == nullptr) {
    return Status::InvalidArgument(
        "relational recoding requires a relational context");
  }
  const size_t n = original.num_records();
  if (relational != nullptr &&
      (relational->num_qi() != rel_context->num_qi() ||
       (relational->num_qi() > 0 && relational->num_records() != n))) {
    return Status::InvalidArgument(StrFormat(
        "relational recoding has %zu records x %zu QIs for a %zu-record "
        "dataset with %zu QIs",
        relational->num_records(), relational->num_qi(), n,
        rel_context->num_qi()));
  }
  if (transaction != nullptr && transaction->records.size() != n) {
    return Status::InvalidArgument(StrFormat(
        "transaction recoding has %zu records for a %zu-record dataset",
        transaction->records.size(), n));
  }
  Dataset::Parts parts;
  parts.num_records = n;
  // Output schema: QID columns that were recoded become categorical.
  for (size_t a = 0; a < original.schema().num_attributes(); ++a) {
    AttributeSpec spec = original.schema().attribute(a);
    if (relational != nullptr && spec.type == AttributeType::kNumeric &&
        spec.role == AttributeRole::kQuasiIdentifier) {
      spec.type = AttributeType::kCategorical;
    }
    SECRETA_RETURN_IF_ERROR(parts.schema.AddAttribute(spec));
  }

  // Relational cells. A column's source is a hierarchy node when the column
  // is a recoded QI, else the original value id. Each source is encoded on
  // first use, in record order, so it gets the id AddRow would have given
  // its string; sources with equal strings share that id.
  const size_t stride = original.num_relational();
  std::vector<size_t> recoded_qi(stride, SIZE_MAX);
  if (relational != nullptr) {
    for (size_t qi = 0; qi < rel_context->num_qi(); ++qi) {
      recoded_qi[rel_context->qi_column(qi)] = qi;
    }
  }
  std::vector<std::vector<ValueId>> id_of_source(stride);
  for (size_t col = 0; col < stride; ++col) {
    id_of_source[col].assign(
        recoded_qi[col] != SIZE_MAX
            ? rel_context->hierarchy(recoded_qi[col]).num_nodes()
            : original.dictionary(col).size(),
        kInvalidValue);
  }
  parts.dictionaries.resize(stride);
  parts.numeric.resize(stride);
  parts.cells.resize(n * stride);
  for (size_t r = 0; r < n; ++r) {
    for (size_t col = 0; col < stride; ++col) {
      const size_t qi = recoded_qi[col];
      // declassify: a non-QID relational cell (sensitive attribute or a
      // column outside this run's QI set) is published verbatim because the
      // k/k^m model's guarantee is scoped to quasi-identifiers.
      const size_t source = static_cast<size_t>(
          qi != SIZE_MAX ? relational->at(r, qi)
                         : Declassify(original.value(r, col)));
      ValueId& id = id_of_source[col][source];
      if (id == kInvalidValue) {
        const std::string& text =
            qi != SIZE_MAX
                ? rel_context->hierarchy(qi).label(static_cast<NodeId>(source))
                : original.dictionary(col).value(static_cast<ValueId>(source));
        SECRETA_ASSIGN_OR_RETURN(
            id, Dataset::EncodeText(
                    text,
                    parts.schema.attribute(original.AttributeOfColumn(col)),
                    &parts.dictionaries[col], &parts.numeric[col]));
      }
      parts.cells[r * stride + col] = id;
    }
  }

  // Transaction cells: the tokens of the record's gen labels, or of its
  // original items when the transaction side passes through; then sorted
  // and de-duplicated, as EncodeTransaction does.
  if (original.has_transaction()) {
    parts.transactions.resize(n);
    TokenIds tokens(transaction != nullptr
                        ? transaction->gens.size()
                        : original.item_dictionary().size());
    for (size_t r = 0; r < n; ++r) {
      std::vector<ItemId>& items = parts.transactions[r];
      auto append = [&](size_t source, const std::string& text) {
        const std::vector<ItemId>& ids =
            tokens.Of(source, text, &parts.item_dictionary);
        items.insert(items.end(), ids.begin(), ids.end());
      };
      if (transaction != nullptr) {
        for (int32_t gen : transaction->records[r]) {
          const size_t g = static_cast<size_t>(gen);
          append(g, transaction->gens[g].label);
        }
      } else {
        // declassify: transaction side is not being anonymized in this
        // run; the caller's config scopes the guarantee to the relational
        // QIDs, so the item set passes through unchanged by contract.
        for (ItemId item : Declassify(original.items(r))) {
          append(static_cast<size_t>(item),
                 original.item_dictionary().value(item));
        }
      }
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
    }
  }
  return Dataset::FromParts(std::move(parts));
}

RelationalRecoding IdentityRecoding(const RelationalContext& context) {
  RelationalRecoding recoding(context.num_records(), context.num_qi());
  for (size_t r = 0; r < context.num_records(); ++r) {
    for (size_t q = 0; q < context.num_qi(); ++q) {
      recoding.set(r, q, context.Leaf(r, q));
    }
  }
  return recoding;
}

RelationalRecoding ApplyFullDomainLevels(const RelationalContext& context,
                                         const std::vector<int>& levels) {
  RelationalRecoding recoding(context.num_records(), context.num_qi());
  // Per-QI memoized leaf -> ancestor lookup (shared across records).
  std::vector<std::vector<NodeId>> memo(context.num_qi());
  for (size_t q = 0; q < context.num_qi(); ++q) {
    memo[q].assign(context.hierarchy(q).num_nodes(), kNoNode);
  }
  for (size_t r = 0; r < context.num_records(); ++r) {
    for (size_t q = 0; q < context.num_qi(); ++q) {
      NodeId leaf = context.Leaf(r, q);
      NodeId& cached = memo[q][static_cast<size_t>(leaf)];
      if (cached == kNoNode) {
        cached = context.hierarchy(q).AncestorAtLevel(leaf, levels[q]);
      }
      recoding.set(r, q, cached);
    }
  }
  return recoding;
}

Result<RelationalRecoding> ApplyCut(
    const RelationalContext& context,
    const std::vector<std::vector<NodeId>>& cut) {
  if (cut.size() != context.num_qi()) {
    return Status::InvalidArgument("cut must have one node set per QI");
  }
  // Precompute leaf -> cut node per QI.
  std::vector<std::vector<NodeId>> leaf_target(context.num_qi());
  for (size_t q = 0; q < context.num_qi(); ++q) {
    const Hierarchy& h = context.hierarchy(q);
    leaf_target[q].assign(h.num_nodes(), kNoNode);
    for (NodeId node : cut[q]) {
      for (NodeId leaf : h.LeavesUnder(node)) {
        NodeId& slot = leaf_target[q][static_cast<size_t>(leaf)];
        if (slot != kNoNode) {
          return Status::InvalidArgument(
              "cut nodes overlap on leaf '" + h.label(leaf) + "'");
        }
        slot = node;
      }
    }
  }
  RelationalRecoding recoding(context.num_records(), context.num_qi());
  for (size_t r = 0; r < context.num_records(); ++r) {
    for (size_t q = 0; q < context.num_qi(); ++q) {
      NodeId target = leaf_target[q][static_cast<size_t>(context.Leaf(r, q))];
      if (target == kNoNode) {
        return Status::InvalidArgument(
            "cut does not cover leaf '" +
            context.hierarchy(q).label(context.Leaf(r, q)) + "'");
      }
      recoding.set(r, q, target);
    }
  }
  return recoding;
}

}  // namespace secreta
