#include "robust/shard_checkpoint.h"

#include "common/string_util.h"
#include "robust/record_log.h"

namespace secreta {

namespace {

constexpr const char* kMagic = "secreta-shard-checkpoint";

// The "done" line pins an FNV-1a over the payload, folded incrementally so
// neither load nor verification has to hold the block in memory.
uint64_t PayloadSeed() { return Fnv1a64("shard-payload"); }

uint64_t FoldPayloadRow(uint64_t fp, uint32_t row, const std::string& line) {
  fp = HashCombine(fp, static_cast<uint64_t>(row));
  return HashCombine(fp, Fnv1a64(line));
}

// Reads `count` payload lines "<rowid>\t<csv>" into their fingerprint
// `*fp`, keeping them in `*record` when it is non-null. False on a torn or
// malformed line.
bool ReadPayloadLines(std::istream& in, size_t count, uint64_t* fp,
                      ShardRecord* record) {
  *fp = PayloadSeed();
  std::string line;
  for (size_t i = 0; i < count; ++i) {
    if (!ReadRecordLine(in, &line)) return false;
    const size_t tab = line.find('\t');
    uint64_t row = 0;
    if (tab == std::string::npos || !DecodeU64(line.substr(0, tab), &row) ||
        row > 0xffffffffull) {
      return false;
    }
    std::string csv = line.substr(tab + 1);
    *fp = FoldPayloadRow(*fp, static_cast<uint32_t>(row), csv);
    if (record != nullptr) {
      record->rows.push_back(static_cast<uint32_t>(row));
      record->lines.push_back(std::move(csv));
    }
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<ShardCheckpoint>> ShardCheckpoint::Open(
    const std::string& path, uint64_t run_key, uint64_t dataset_fp,
    uint64_t plan_fp) {
  std::map<size_t, Entry> records;
  std::ofstream out;
  // Shard blocks: "shard <s> <rows> <gcp> <secs>", then <rows> payload
  // lines "<rowid>\t<csv>", then "done <s> <payload-fp>". Payload lines are
  // folded into the fingerprint but NOT retained — only the offset of the
  // first one is, for later ReadPayload() calls.
  SECRETA_RETURN_IF_ERROR(OpenRecordLog(
      path, kMagic, "run/dataset/partition", {run_key, dataset_fp, plan_fp},
      [&](std::istream& in) {
        std::string line;
        if (!ReadRecordLine(in, &line)) return false;
        std::vector<std::string> head = SplitWhitespace(line);
        uint64_t shard = 0;
        uint64_t rows = 0;
        Entry entry;
        if (head.size() != 5 || head[0] != "shard" ||
            !DecodeU64(head[1], &shard) || !DecodeU64(head[2], &rows) ||
            !DecodeDouble(head[3], &entry.meta.gcp) ||
            !DecodeDouble(head[4], &entry.meta.seconds)) {
          return false;
        }
        entry.meta.shard = static_cast<size_t>(shard);
        entry.meta.num_rows = static_cast<size_t>(rows);
        entry.offset = static_cast<std::streamoff>(in.tellg());
        if (!ReadPayloadLines(in, entry.meta.num_rows, &entry.payload_fp,
                              nullptr) ||
            !ReadRecordLine(in, &line)) {
          return false;
        }
        std::vector<std::string> tail = SplitWhitespace(line);
        uint64_t done_shard = 0;
        uint64_t done_fp = 0;
        if (tail.size() != 3 || tail[0] != "done" ||
            !DecodeU64(tail[1], &done_shard) || done_shard != shard ||
            !DecodeU64Hex(tail[2], &done_fp) || done_fp != entry.payload_fp) {
          return false;
        }
        records[entry.meta.shard] = entry;
        return true;
      },
      &out));
  std::unique_ptr<ShardCheckpoint> log(new ShardCheckpoint(path));
  log->loaded_ = records.size();
  MutexLock lock(log->mutex_);
  log->records_ = std::move(records);
  log->out_ = std::move(out);
  return log;
}

bool ShardCheckpoint::FindMeta(size_t shard, ShardMeta* out) const {
  MutexLock lock(mutex_);
  auto it = records_.find(shard);
  if (it == records_.end()) return false;
  *out = it->second.meta;
  return true;
}

Result<ShardRecord> ShardCheckpoint::ReadPayload(size_t shard) const {
  Entry entry;
  {
    MutexLock lock(mutex_);
    auto it = records_.find(shard);
    if (it == records_.end()) {
      return Status::NotFound(
          StrFormat("shard %zu not in checkpoint %s", shard, path_.c_str()));
    }
    entry = it->second;
  }
  std::ifstream in(path_);
  if (!in) {
    return Status::IOError("cannot reopen shard checkpoint: " + path_);
  }
  in.seekg(entry.offset);
  ShardRecord record;
  record.shard = entry.meta.shard;
  record.gcp = entry.meta.gcp;
  record.seconds = entry.meta.seconds;
  record.rows.reserve(entry.meta.num_rows);
  record.lines.reserve(entry.meta.num_rows);
  uint64_t fp = 0;
  if (!ReadPayloadLines(in, entry.meta.num_rows, &fp, &record) ||
      fp != entry.payload_fp) {
    return Status::IOError(StrFormat(
        "shard checkpoint %s: shard %zu payload changed since load",
        path_.c_str(), shard));
  }
  return record;
}

Status ShardCheckpoint::Append(const ShardRecord& record) {
  if (record.rows.size() != record.lines.size()) {
    return Status::InvalidArgument("shard record rows/lines length mismatch");
  }
  for (const std::string& l : record.lines) {
    if (l.find('\n') != std::string::npos ||
        l.find('\r') != std::string::npos) {
      return Status::InvalidArgument("shard record lines must be single-line");
    }
  }
  MutexLock lock(mutex_);
  out_ << "shard " << record.shard << ' ' << record.rows.size() << ' '
       << EncodeDouble(record.gcp) << ' ' << EncodeDouble(record.seconds)
       << '\n'
       << std::flush;
  Entry entry;
  entry.meta.shard = record.shard;
  entry.meta.num_rows = record.rows.size();
  entry.meta.gcp = record.gcp;
  entry.meta.seconds = record.seconds;
  // With std::ios::app every write lands at end-of-file, so after the head
  // line the put position IS the offset of the first payload line.
  entry.offset = static_cast<std::streamoff>(out_.tellp());
  uint64_t fp = PayloadSeed();
  for (size_t i = 0; i < record.rows.size(); ++i) {
    out_ << record.rows[i] << '\t' << record.lines[i] << '\n';
    fp = FoldPayloadRow(fp, record.rows[i], record.lines[i]);
  }
  entry.payload_fp = fp;
  out_ << "done " << record.shard << ' ' << U64Hex(fp) << '\n' << std::flush;
  if (!out_) {
    return Status::IOError("shard checkpoint append failed: " + path_);
  }
  records_[record.shard] = entry;
  return Status::OK();
}

}  // namespace secreta
