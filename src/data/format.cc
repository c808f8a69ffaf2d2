#include "data/format.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/string_util.h"
#include "data/mmap_file.h"

namespace secreta {

namespace {

// Same FNV-1a 64 as common/string_util, restated incrementally so the file
// fingerprint can fold section buffers without concatenating them.
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvFold(uint64_t hash, std::string_view chunk) {
  for (char c : chunk) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t HashView(const uint8_t* data, size_t size) {
  return Fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data), size));
}

void PutString(std::string* out, const std::string& s) {
  bytes::PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// On-disk attribute type/role codes are pinned independently of the C++
// enum order (docs/FORMATS.md "Schema block").
uint8_t TypeCode(AttributeType type) {
  switch (type) {
    case AttributeType::kCategorical:
      return 0;
    case AttributeType::kNumeric:
      return 1;
    case AttributeType::kTransaction:
      return 2;
  }
  return 0xff;
}

uint8_t RoleCode(AttributeRole role) {
  return role == AttributeRole::kInsensitive ? 1 : 0;
}

/// Bounds-checked little-endian cursor over a byte span. Every Read*
/// returns a Status so truncated or corrupt files surface as errors, never
/// as out-of-bounds reads.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  Status Need(size_t n) {
    if (remaining() < n) {
      return Status::InvalidArgument(
          StrFormat("truncated SBC1 data: need %zu bytes at offset %zu, "
                    "have %zu",
                    n, pos_, remaining()));
    }
    return Status::OK();
  }

  Status ReadU8(uint8_t* out) {
    SECRETA_RETURN_IF_ERROR(Need(1));
    *out = data_[pos_++];
    return Status::OK();
  }
  Status ReadU16(uint16_t* out) {
    SECRETA_RETURN_IF_ERROR(Need(2));
    *out = bytes::GetU16(data_ + pos_);
    pos_ += 2;
    return Status::OK();
  }
  Status ReadU32(uint32_t* out) {
    SECRETA_RETURN_IF_ERROR(Need(4));
    *out = bytes::GetU32(data_ + pos_);
    pos_ += 4;
    return Status::OK();
  }
  Status ReadU64(uint64_t* out) {
    SECRETA_RETURN_IF_ERROR(Need(8));
    *out = bytes::GetU64(data_ + pos_);
    pos_ += 8;
    return Status::OK();
  }
  Status ReadString(std::string* out) {
    uint32_t len = 0;
    SECRETA_RETURN_IF_ERROR(ReadU32(&len));
    SECRETA_RETURN_IF_ERROR(Need(len));
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }
  Status Skip(size_t n) {
    SECRETA_RETURN_IF_ERROR(Need(n));
    pos_ += n;
    return Status::OK();
  }
  /// Raw pointer to `n` bytes, advancing the cursor.
  Status ReadSpan(size_t n, const uint8_t** out) {
    SECRETA_RETURN_IF_ERROR(Need(n));
    *out = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt SBC1 file: " + what);
}

}  // namespace

uint64_t DatasetContentFingerprint(const Dataset& dataset) {
  // The CSV serialization covers the schema header, every relational cell,
  // and every transaction — exactly the content a run depends on — and is
  // already deterministic (ToCsv preserves record and column order).
  return Fnv1a64(csv::WriteCsv(dataset.ToCsv()));
}

bool LooksLikeBinaryDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, 4);
  if (in.gcount() != 4) return false;
  return bytes::GetU32(reinterpret_cast<const uint8_t*>(magic)) == kSbcMagic;
}

// -- writer -------------------------------------------------------------------

Status WriteBinaryDataset(const Dataset& dataset, const std::string& path,
                          const BinaryWriteOptions& options) {
  const Schema& schema = dataset.schema();
  const size_t num_cols = dataset.num_relational();
  const bool has_txn = dataset.has_transaction();
  const ShardPlan plan = ShardPlan::Make(
      options.shard_kind, dataset.num_records(), options.num_shards,
      options.salt);

  const uint16_t flags = has_txn ? kSbcFlagTransaction : 0;

  // Preamble: header + schema block + dictionary pages.
  std::string preamble;
  bytes::PutU32(&preamble, kSbcMagic);
  bytes::PutU16(&preamble, kSbcVersion);
  bytes::PutU16(&preamble, flags);
  bytes::PutU64(&preamble, dataset.num_records());
  bytes::PutU32(&preamble, static_cast<uint32_t>(schema.num_attributes()));
  bytes::PutU32(&preamble, static_cast<uint32_t>(plan.num_shards()));
  preamble.push_back(static_cast<char>(plan.kind() == ShardKind::kHash));
  preamble.append(7, '\0');  // reserved
  bytes::PutU64(&preamble, plan.salt());

  bytes::PutU32(&preamble, static_cast<uint32_t>(schema.num_attributes()));
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    const AttributeSpec& spec = schema.attribute(i);
    PutString(&preamble, spec.name);
    preamble.push_back(static_cast<char>(TypeCode(spec.type)));
    preamble.push_back(static_cast<char>(RoleCode(spec.role)));
    bytes::PutU16(&preamble, 0);  // reserved
  }

  for (size_t c = 0; c < num_cols; ++c) {
    const Dictionary& dict = dataset.dictionary(c);
    bytes::PutU32(&preamble, static_cast<uint32_t>(dict.size()));
    for (const std::string& v : dict.values()) PutString(&preamble, v);
    if (dataset.is_numeric(c)) {
      for (size_t id = 0; id < dict.size(); ++id) {
        bytes::PutF64(&preamble,
                      dataset.numeric_value(c, static_cast<ValueId>(id)).raw());
      }
    }
  }
  if (has_txn) {
    const Dictionary& items = dataset.item_dictionary();
    bytes::PutU32(&preamble, static_cast<uint32_t>(items.size()));
    for (const std::string& v : items.values()) PutString(&preamble, v);
    std::vector<uint64_t> supports(items.size(), 0);
    for (size_t r = 0; r < dataset.num_records(); ++r) {
      for (ItemId item : dataset.items(r).raw()) {
        ++supports[static_cast<size_t>(item)];
      }
    }
    for (uint64_t s : supports) bytes::PutU64(&preamble, s);
  }

  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + tmp_path + "' for write");

  uint64_t offset = 0;
  uint64_t file_hash = kFnvBasis;
  auto emit = [&](const std::string& buffer) {
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    file_hash = FnvFold(file_hash, buffer);
    offset += buffer.size();
  };
  emit(preamble);

  std::vector<uint64_t> shard_offsets;
  std::vector<uint64_t> shard_lengths;
  std::vector<uint64_t> shard_hashes;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const std::vector<uint32_t> rows = plan.Rows(s);
    std::string section;
    bytes::PutU32(&section, kSbcShardMagic);
    bytes::PutU32(&section, static_cast<uint32_t>(s));
    bytes::PutU64(&section, rows.size());
    for (uint32_t r : rows) bytes::PutU32(&section, r);
    // Cells, column-major within the shard.
    for (size_t c = 0; c < num_cols; ++c) {
      for (uint32_t r : rows) {
        bytes::PutI32(&section, dataset.value(r, c).raw());
      }
    }
    if (has_txn) {
      uint64_t total = 0;
      bytes::PutU64(&section, 0);
      for (uint32_t r : rows) {
        total += dataset.items(r).raw().size();
        bytes::PutU64(&section, total);
      }
      for (uint32_t r : rows) {
        for (ItemId item : dataset.items(r).raw()) bytes::PutI32(&section, item);
      }
    }
    shard_offsets.push_back(offset);
    shard_lengths.push_back(section.size());
    shard_hashes.push_back(Fnv1a64(section));
    emit(section);
  }

  const uint64_t footer_offset = offset;
  std::string footer;
  bytes::PutU32(&footer, kSbcFooterMagic);
  bytes::PutU32(&footer, static_cast<uint32_t>(plan.num_shards()));
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    bytes::PutU64(&footer, shard_offsets[s]);
    bytes::PutU64(&footer, shard_lengths[s]);
    bytes::PutU64(&footer, shard_hashes[s]);
  }
  bytes::PutU64(&footer, DatasetContentFingerprint(dataset));
  bytes::PutU64(&footer, file_hash);  // physical hash of [0, footer_offset)
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));

  std::string trailer;
  bytes::PutU64(&trailer, footer_offset);
  bytes::PutU32(&trailer, static_cast<uint32_t>(footer.size()));
  bytes::PutU32(&trailer, kSbcEndMagic);
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out.flush();
  if (!out) return Status::IOError("write failed for '" + tmp_path + "'");
  out.close();

  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename '" + tmp_path + "' -> '" + path + "' failed");
  }
  return Status::OK();
}

// -- reader -------------------------------------------------------------------

Result<BinaryDatasetReader> BinaryDatasetReader::Open(const std::string& path) {
  SECRETA_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  if (file.size() < kSbcHeaderBytes + kSbcTrailerBytes) {
    return Corrupt("file smaller than header + trailer");
  }

  BinaryDatasetReader reader;
  reader.path_ = path;

  ByteReader header(file.data(), file.size());
  uint32_t magic = 0;
  uint16_t version = 0;
  uint32_t num_attributes = 0;
  uint32_t num_shards = 0;
  uint8_t shard_kind = 0;
  uint64_t num_records = 0;
  SECRETA_RETURN_IF_ERROR(header.ReadU32(&magic));
  if (magic != kSbcMagic) {
    return Status::InvalidArgument(
        StrFormat("not an SBC1 file: bad magic 0x%08x", magic));
  }
  SECRETA_RETURN_IF_ERROR(header.ReadU16(&version));
  if (version == 0 || version > kSbcVersion) {
    return Status::Unimplemented(
        StrFormat("unsupported SBC1 version %u (reader supports <= %u)",
                  version, kSbcVersion));
  }
  SECRETA_RETURN_IF_ERROR(header.ReadU16(&reader.flags_));
  constexpr uint16_t kKnownFlags = kSbcFlagTransaction | kSbcFlagLegacyPostings;
  if ((reader.flags_ & ~kKnownFlags) != 0) {
    return Status::Unimplemented(
        StrFormat("unknown SBC1 flags 0x%04x", reader.flags_));
  }
  SECRETA_RETURN_IF_ERROR(header.ReadU64(&num_records));
  SECRETA_RETURN_IF_ERROR(header.ReadU32(&num_attributes));
  SECRETA_RETURN_IF_ERROR(header.ReadU32(&num_shards));
  SECRETA_RETURN_IF_ERROR(header.ReadU8(&shard_kind));
  SECRETA_RETURN_IF_ERROR(header.Skip(7));  // reserved
  SECRETA_RETURN_IF_ERROR(header.ReadU64(&reader.salt_));
  if (shard_kind > 1) return Corrupt("unknown shard kind");
  reader.shard_kind_ = shard_kind == 1 ? ShardKind::kHash : ShardKind::kRange;
  reader.num_records_ = static_cast<size_t>(num_records);
  if (num_shards == 0) return Corrupt("zero shards");

  // Trailer → footer. Every range check below compares by subtraction from
  // a bound already checked, so hostile u64 fields cannot wrap past it.
  const uint64_t trailer_offset = file.size() - kSbcTrailerBytes;
  ByteReader trailer(file.data() + trailer_offset, kSbcTrailerBytes);
  uint64_t footer_offset = 0;
  uint32_t footer_length = 0;
  uint32_t end_magic = 0;
  SECRETA_RETURN_IF_ERROR(trailer.ReadU64(&footer_offset));
  SECRETA_RETURN_IF_ERROR(trailer.ReadU32(&footer_length));
  SECRETA_RETURN_IF_ERROR(trailer.ReadU32(&end_magic));
  if (end_magic != kSbcEndMagic) return Corrupt("bad end magic");
  if (footer_offset < kSbcHeaderBytes || footer_offset > trailer_offset ||
      footer_length != trailer_offset - footer_offset) {
    return Corrupt("footer range does not line up with the file size");
  }
  reader.footer_offset_ = footer_offset;

  ByteReader footer(file.data() + footer_offset, footer_length);
  uint32_t footer_magic = 0;
  uint32_t footer_shards = 0;
  SECRETA_RETURN_IF_ERROR(footer.ReadU32(&footer_magic));
  if (footer_magic != kSbcFooterMagic) return Corrupt("bad footer magic");
  SECRETA_RETURN_IF_ERROR(footer.ReadU32(&footer_shards));
  if (footer_shards != num_shards) {
    return Corrupt("footer shard count disagrees with header");
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    uint64_t off = 0;
    uint64_t len = 0;
    uint64_t hash = 0;
    SECRETA_RETURN_IF_ERROR(footer.ReadU64(&off));
    SECRETA_RETURN_IF_ERROR(footer.ReadU64(&len));
    SECRETA_RETURN_IF_ERROR(footer.ReadU64(&hash));
    if (off < kSbcHeaderBytes || off > footer_offset ||
        len > footer_offset - off) {
      return Corrupt(StrFormat("shard %u section out of bounds", s));
    }
    reader.shard_offsets_.push_back(off);
    reader.shard_lengths_.push_back(len);
    reader.shard_fingerprints_.push_back(hash);
  }
  SECRETA_RETURN_IF_ERROR(footer.ReadU64(&reader.content_fingerprint_));
  SECRETA_RETURN_IF_ERROR(footer.ReadU64(&reader.file_fingerprint_));

  // Schema block.
  ByteReader body(file.data() + kSbcHeaderBytes,
                  footer_offset - kSbcHeaderBytes);
  uint32_t attr_count = 0;
  SECRETA_RETURN_IF_ERROR(body.ReadU32(&attr_count));
  if (attr_count != num_attributes) {
    return Corrupt("schema block attribute count disagrees with header");
  }
  for (uint32_t i = 0; i < attr_count; ++i) {
    AttributeSpec spec;
    uint8_t type = 0;
    uint8_t role = 0;
    uint16_t reserved = 0;
    SECRETA_RETURN_IF_ERROR(body.ReadString(&spec.name));
    SECRETA_RETURN_IF_ERROR(body.ReadU8(&type));
    SECRETA_RETURN_IF_ERROR(body.ReadU8(&role));
    SECRETA_RETURN_IF_ERROR(body.ReadU16(&reserved));
    if (type > 2 || role > 1) return Corrupt("unknown attribute type/role");
    spec.type = type == 0 ? AttributeType::kCategorical
                          : (type == 1 ? AttributeType::kNumeric
                                       : AttributeType::kTransaction);
    spec.role = role == 1 ? AttributeRole::kInsensitive
                          : AttributeRole::kQuasiIdentifier;
    SECRETA_RETURN_IF_ERROR(reader.schema_.AddAttribute(spec));
  }
  const bool has_txn = (reader.flags_ & kSbcFlagTransaction) != 0;
  if (has_txn != reader.schema_.has_transaction()) {
    return Corrupt("transaction flag disagrees with schema block");
  }
  // Every record owns a 4-byte row id and a 4-byte cell per relational
  // column in some shard section, all between the header and the footer.
  // Checked before anything is sized by the record count.
  const uint64_t record_bytes =
      4 * (1 + uint64_t{reader.schema_.RelationalIndices().size()});
  if (num_records > (footer_offset - kSbcHeaderBytes) / record_bytes) {
    return Corrupt("record count exceeds what the file can hold");
  }

  // Dictionary pages.
  for (size_t attr : reader.schema_.RelationalIndices()) {
    uint32_t count = 0;
    SECRETA_RETURN_IF_ERROR(body.ReadU32(&count));
    Dictionary dict;
    for (uint32_t v = 0; v < count; ++v) {
      std::string value;
      SECRETA_RETURN_IF_ERROR(body.ReadString(&value));
      if (dict.GetOrAdd(value) != static_cast<ValueId>(v)) {
        return Corrupt("duplicate dictionary entry");
      }
    }
    std::vector<double> numeric;
    if (reader.schema_.attribute(attr).type == AttributeType::kNumeric) {
      numeric.reserve(count);
      for (uint32_t v = 0; v < count; ++v) {
        uint64_t raw = 0;
        SECRETA_RETURN_IF_ERROR(body.ReadU64(&raw));
        double d = 0;
        static_assert(sizeof raw == sizeof d, "f64 width");
        std::memcpy(&d, &raw, sizeof d);
        numeric.push_back(d);
      }
    }
    reader.dictionaries_.push_back(std::move(dict));
    reader.numeric_.push_back(std::move(numeric));
  }
  if (has_txn) {
    uint32_t count = 0;
    SECRETA_RETURN_IF_ERROR(body.ReadU32(&count));
    for (uint32_t v = 0; v < count; ++v) {
      std::string value;
      SECRETA_RETURN_IF_ERROR(body.ReadString(&value));
      if (reader.item_dictionary_.GetOrAdd(value) != static_cast<ItemId>(v)) {
        return Corrupt("duplicate item dictionary entry");
      }
    }
    reader.item_supports_.reserve(count);
    for (uint32_t v = 0; v < count; ++v) {
      uint64_t support = 0;
      SECRETA_RETURN_IF_ERROR(body.ReadU64(&support));
      reader.item_supports_.push_back(support);
    }
  }
  // The mapping is dropped here; shard reads map their own windows.
  return reader;
}

Result<Dataset> BinaryDatasetReader::DecodeShard(
    size_t shard, const uint8_t* data, size_t size,
    std::vector<uint32_t>* rows_out) const {
  ByteReader r(data, size);
  uint32_t magic = 0;
  uint32_t index = 0;
  uint64_t row_count = 0;
  SECRETA_RETURN_IF_ERROR(r.ReadU32(&magic));
  if (magic != kSbcShardMagic) return Corrupt("bad shard section magic");
  SECRETA_RETURN_IF_ERROR(r.ReadU32(&index));
  if (index != shard) return Corrupt("shard section index mismatch");
  SECRETA_RETURN_IF_ERROR(r.ReadU64(&row_count));
  if (row_count > num_records_ || row_count > r.remaining() / 4) {
    return Corrupt("shard row count exceeds the dataset or its section");
  }

  std::vector<uint32_t> rows;
  rows.reserve(static_cast<size_t>(row_count));
  int64_t prev = -1;
  for (uint64_t i = 0; i < row_count; ++i) {
    uint32_t row = 0;
    SECRETA_RETURN_IF_ERROR(r.ReadU32(&row));
    if (static_cast<int64_t>(row) <= prev || row >= num_records_) {
      return Corrupt("shard row ids not ascending in range");
    }
    prev = row;
    rows.push_back(row);
  }

  const size_t num_cols = dictionaries_.size();
  Dataset::Parts parts;
  parts.schema = schema_;
  parts.dictionaries = dictionaries_;
  parts.numeric = numeric_;
  parts.num_records = static_cast<size_t>(row_count);
  parts.cells.resize(static_cast<size_t>(row_count) * num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    const uint8_t* span = nullptr;
    SECRETA_RETURN_IF_ERROR(r.ReadSpan(4 * static_cast<size_t>(row_count), &span));
    for (uint64_t i = 0; i < row_count; ++i) {
      parts.cells[static_cast<size_t>(i) * num_cols + c] =
          bytes::GetI32(span + 4 * i);
    }
  }
  if ((flags_ & kSbcFlagTransaction) != 0) {
    parts.item_dictionary = item_dictionary_;
    std::vector<uint64_t> offsets;
    offsets.reserve(static_cast<size_t>(row_count) + 1);
    uint64_t prev_off = 0;
    for (uint64_t i = 0; i <= row_count; ++i) {
      uint64_t off = 0;
      SECRETA_RETURN_IF_ERROR(r.ReadU64(&off));
      if (i == 0 ? off != 0 : off < prev_off) {
        return Corrupt("transaction offsets not ascending from zero");
      }
      prev_off = off;
      offsets.push_back(off);
    }
    if (offsets.back() > r.remaining() / 4) {
      return Corrupt("transaction item count exceeds its section");
    }
    const uint8_t* span = nullptr;
    SECRETA_RETURN_IF_ERROR(
        r.ReadSpan(4 * static_cast<size_t>(offsets.back()), &span));
    parts.transactions.resize(static_cast<size_t>(row_count));
    for (uint64_t i = 0; i < row_count; ++i) {
      auto& txn = parts.transactions[static_cast<size_t>(i)];
      txn.reserve(static_cast<size_t>(offsets[i + 1] - offsets[i]));
      for (uint64_t j = offsets[i]; j < offsets[i + 1]; ++j) {
        txn.push_back(bytes::GetI32(span + 4 * j));
      }
    }
  }
  // Files from earlier writers (flag bit 1) carry posting lists after the
  // CSR. The section fingerprint covers them; decoding never reads them.
  if (rows_out != nullptr) *rows_out = std::move(rows);
  return Dataset::FromParts(std::move(parts));
}

Result<Dataset> BinaryDatasetReader::ReadShard(size_t shard) const {
  if (shard >= num_shards()) {
    return Status::OutOfRange(StrFormat("shard %zu of %zu", shard, num_shards()));
  }
  SECRETA_ASSIGN_OR_RETURN(
      MmapFile view, MmapFile::OpenRange(path_, shard_offsets_[shard],
                                         shard_lengths_[shard]));
  if (HashView(view.data(), view.size()) != shard_fingerprints_[shard]) {
    return Corrupt(StrFormat("shard %zu fingerprint mismatch", shard));
  }
  return DecodeShard(shard, view.data(), view.size(), nullptr);
}

Result<Dataset> BinaryDatasetReader::ReadAll() const {
  const size_t num_cols = dictionaries_.size();
  Dataset::Parts parts;
  parts.schema = schema_;
  parts.dictionaries = dictionaries_;
  parts.numeric = numeric_;
  parts.item_dictionary = item_dictionary_;
  parts.num_records = num_records_;
  parts.cells.assign(num_records_ * num_cols, 0);
  if ((flags_ & kSbcFlagTransaction) != 0) {
    parts.transactions.resize(num_records_);
  }
  std::vector<bool> seen(num_records_, false);
  for (size_t s = 0; s < num_shards(); ++s) {
    std::vector<uint32_t> rows;
    SECRETA_ASSIGN_OR_RETURN(
        MmapFile view, MmapFile::OpenRange(path_, shard_offsets_[s],
                                           shard_lengths_[s]));
    if (HashView(view.data(), view.size()) != shard_fingerprints_[s]) {
      return Corrupt(StrFormat("shard %zu fingerprint mismatch", s));
    }
    SECRETA_ASSIGN_OR_RETURN(Dataset piece,
                             DecodeShard(s, view.data(), view.size(), &rows));
    if (piece.num_records() != rows.size()) {
      return Corrupt("shard row list disagrees with cell block");
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t row = rows[i];
      if (seen[row]) return Corrupt("row owned by two shards");
      seen[row] = true;
      for (size_t c = 0; c < num_cols; ++c) {
        parts.cells[row * num_cols + c] = piece.value(i, c).raw();
      }
      if ((flags_ & kSbcFlagTransaction) != 0) {
        parts.transactions[row] = piece.items(i).raw();
      }
    }
  }
  for (size_t row = 0; row < num_records_; ++row) {
    if (!seen[row]) return Corrupt("row not covered by any shard");
  }
  return Dataset::FromParts(std::move(parts));
}

Status BinaryDatasetReader::VerifyFile() const {
  SECRETA_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path_));
  if (HashView(file.data(), static_cast<size_t>(footer_offset_)) !=
      file_fingerprint_) {
    return Corrupt("file fingerprint mismatch");
  }
  for (size_t s = 0; s < num_shards(); ++s) {
    if (HashView(file.data() + shard_offsets_[s],
                 static_cast<size_t>(shard_lengths_[s])) !=
        shard_fingerprints_[s]) {
      return Corrupt(StrFormat("shard %zu fingerprint mismatch", s));
    }
  }
  SECRETA_ASSIGN_OR_RETURN(Dataset all, ReadAll());
  if (DatasetContentFingerprint(all) != content_fingerprint_) {
    return Corrupt("content fingerprint mismatch");
  }
  return Status::OK();
}

}  // namespace secreta
