#include "robust/shard_checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <vector>

#include "common/string_util.h"
#include "robust/record_log.h"

namespace secreta {

namespace {

constexpr const char* kMagic = "secreta-shard-checkpoint";

// The "done" line pins an FNV-1a over the payload, folded incrementally so
// neither load nor verification has to hold the block in memory.
uint64_t PayloadSeed() { return Fnv1a64("shard-payload"); }

uint64_t FoldPayloadRow(uint64_t fp, uint32_t row, std::string_view csv) {
  fp = HashCombine(fp, static_cast<uint64_t>(row));
  return HashCombine(fp, Fnv1a64(csv));
}

// Parses a payload line "<rowid>\t<csv>" in place. The row id is plain
// decimal digits that fit 32 bits: no sign, no space.
bool ParsePayloadLine(std::string_view line, uint32_t* row,
                      std::string_view* csv) {
  const size_t tab = line.find('\t');
  if (tab == std::string_view::npos) return false;
  const char* digits_end = line.data() + tab;
  const auto [end, error] = std::from_chars(line.data(), digits_end, *row);
  if (error != std::errc() || end != digits_end) return false;
  *csv = line.substr(tab + 1);
  return true;
}

}  // namespace

Result<std::unique_ptr<ShardCheckpoint>> ShardCheckpoint::Open(
    const std::string& path, uint64_t run_key, uint64_t dataset_fp,
    uint64_t plan_fp) {
  std::unique_ptr<ShardCheckpoint> log(new ShardCheckpoint(path));
  std::map<size_t, Entry> records;
  // Nothing else can reach the log before Open returns; the lock only
  // satisfies the analysis for out_.
  MutexLock lock(log->mutex_);
  log->out_.rdbuf()->pubsetbuf(log->out_buffer_.get(), kBufferBytes);
  // Shard blocks: "shard <s> <rows> <gcp> <secs>", then <rows> payload
  // lines "<rowid>\t<csv>", then "done <s> <payload-fp>". Payload lines are
  // folded into the fingerprint but NOT retained — only the offset of the
  // first one is, for later OpenPayload() calls.
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
        entry.payload_fp = PayloadSeed();
        for (size_t i = 0; i < entry.meta.num_rows; ++i) {
          uint32_t row = 0;
          std::string_view csv;
          if (!ReadRecordLine(in, &line) ||
              !ParsePayloadLine(line, &row, &csv)) {
            return false;
          }
          entry.payload_fp = FoldPayloadRow(entry.payload_fp, row, csv);
        }
        if (!ReadRecordLine(in, &line)) return false;
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
      &log->out_));
  log->loaded_ = records.size();
  log->records_ = std::move(records);
  return log;
}

bool ShardCheckpoint::FindMeta(size_t shard, ShardMeta* out) const {
  MutexLock lock(mutex_);
  auto it = records_.find(shard);
  if (it == records_.end()) return false;
  *out = it->second.meta;
  return true;
}

// What the readers of one OpenPayloads call share: the file, read at each
// reader's own offset, their buffers, and the scratch in which a line longer
// than a reader's buffer is put together.
struct ShardCheckpoint::PayloadFile {
  std::string path;
  std::ifstream in;
  std::streamoff position = 0;  ///< where `in` stands
  std::unique_ptr<char[]> buffers;
  std::string long_line;
};

Result<ShardCheckpoint::Entry> ShardCheckpoint::FindEntry(size_t shard) const {
  MutexLock lock(mutex_);
  auto it = records_.find(shard);
  if (it == records_.end()) {
    return Status::NotFound(
        StrFormat("shard %zu not in checkpoint %s", shard, path_.c_str()));
  }
  return it->second;
}

Result<ShardCheckpoint::PayloadReader> ShardCheckpoint::OpenPayload(
    size_t shard) const {
  SECRETA_ASSIGN_OR_RETURN(std::vector<PayloadReader> readers,
                           OpenPayloads({shard}));
  return std::move(readers.front());
}

Result<std::vector<ShardCheckpoint::PayloadReader>>
ShardCheckpoint::OpenPayloads(const std::vector<size_t>& shards) const {
  std::vector<Entry> entries;
  entries.reserve(shards.size());
  for (size_t shard : shards) {
    SECRETA_ASSIGN_OR_RETURN(Entry entry, FindEntry(shard));
    entries.push_back(entry);
  }
  std::vector<PayloadReader> readers;
  if (shards.empty()) return readers;
  auto file = std::make_shared<PayloadFile>();
  file->path = path_;
  // Unbuffered: every refill reads straight into a reader's own buffer.
  file->in.rdbuf()->pubsetbuf(nullptr, 0);
  file->in.open(path_, std::ios::binary);
  if (!file->in) {
    return Status::IOError("cannot reopen shard checkpoint: " + path_);
  }
  const size_t capacity = std::clamp(kSharedBufferBytes / shards.size(),
                                     kMinReaderBytes, kBufferBytes);
  file->buffers.reset(new char[capacity * shards.size()]);
  readers.reserve(shards.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    readers.push_back(PayloadReader(
        file, entries[i], file->buffers.get() + i * capacity, capacity));
  }
  return readers;
}

Status ShardCheckpoint::Append(const ShardMeta& meta,
                               const PayloadLine& line) {
  MutexLock lock(mutex_);
  if (torn_) {
    return Status::FailedPrecondition(
        "shard checkpoint " + path_ +
        " ends in a torn block; reopen it to resume");
  }
  out_ << "shard " << meta.shard << ' ' << meta.num_rows << ' '
       << EncodeDouble(meta.gcp) << ' ' << EncodeDouble(meta.seconds) << '\n'
       << std::flush;
  Entry entry;
  entry.meta = meta;
  // With std::ios::app every write lands at end-of-file, so after the head
  // line the put position IS the offset of the first payload line.
  entry.offset = static_cast<std::streamoff>(out_.tellp());
  torn_ = true;  // until the "done" line is out
  uint64_t fp = PayloadSeed();
  // "<rowid>\t": the id through std::to_chars, not a locale-aware operator<<.
  char id[std::numeric_limits<uint32_t>::digits10 + 2];
  for (size_t i = 0; i < meta.num_rows; ++i) {
    uint32_t row = 0;
    std::string_view csv;
    SECRETA_RETURN_IF_ERROR(line(i, &row, &csv));
    if (csv.find('\n') != std::string_view::npos ||
        csv.find('\r') != std::string_view::npos) {
      return Status::InvalidArgument("shard record lines must be single-line");
    }
    char* id_end = std::to_chars(id, id + sizeof(id) - 1, row).ptr;
    *id_end++ = '\t';
    out_.write(id, id_end - id);
    out_.write(csv.data(), static_cast<std::streamsize>(csv.size()));
    out_.put('\n');
    fp = FoldPayloadRow(fp, row, csv);
  }
  out_ << "done " << meta.shard << ' ' << U64Hex(fp) << '\n' << std::flush;
  if (!out_) {
    return Status::IOError("shard checkpoint append failed: " + path_);
  }
  torn_ = false;
  entry.payload_fp = fp;
  records_[meta.shard] = entry;
  return Status::OK();
}

ShardCheckpoint::PayloadReader::PayloadReader(
    std::shared_ptr<PayloadFile> file, const Entry& entry, char* buffer,
    size_t capacity)
    : file_(std::move(file)),
      shard_(entry.meta.shard),
      num_rows_(entry.meta.num_rows),
      expected_fp_(entry.payload_fp),
      fp_(PayloadSeed()),
      offset_(entry.offset),
      buffer_(buffer),
      capacity_(capacity) {}

Result<bool> ShardCheckpoint::PayloadReader::Next(uint32_t* row,
                                                  std::string_view* csv) {
  if (read_ == num_rows_) return false;
  std::string_view line;
  if (!ReadLine(&line) || !ParsePayloadLine(line, row, csv)) {
    return Changed();
  }
  fp_ = FoldPayloadRow(fp_, *row, *csv);
  if (++read_ == num_rows_ && fp_ != expected_fp_) return Changed();
  return true;
}

bool ShardCheckpoint::PayloadReader::ReadLine(std::string_view* line) {
  std::string& long_line = file_->long_line;
  bool carried = false;  // part of the line is already in `long_line`
  for (;;) {
    const char* start = buffer_ + begin_;
    const size_t available = end_ - begin_;
    const void* newline = std::memchr(start, '\n', available);
    if (newline != nullptr) {
      const size_t size = static_cast<size_t>(
          static_cast<const char*>(newline) - start);
      begin_ += size + 1;
      if (carried) {
        long_line.append(start, size);
        *line = long_line;
      } else {
        *line = std::string_view(start, size);
      }
      return true;
    }
    if (available == capacity_) {
      // A line longer than the buffer: carry the part read so far.
      if (!carried) long_line.clear();
      carried = true;
      long_line.append(start, available);
      begin_ = end_ = 0;
    } else if (begin_ > 0) {
      std::memmove(buffer_, start, available);
      begin_ = 0;
      end_ = available;
    }
    if (!Refill()) return false;  // the file ends inside the line
  }
}

// Reads into the free tail of the buffer from this reader's offset, seeking
// the shared file only when another reader moved it.
bool ShardCheckpoint::PayloadReader::Refill() {
  PayloadFile& file = *file_;
  if (file.position != offset_ || !file.in.good()) {
    file.in.clear();
    if (!file.in.seekg(offset_)) return false;
  }
  file.in.read(buffer_ + end_, static_cast<std::streamsize>(capacity_ - end_));
  const size_t got = static_cast<size_t>(file.in.gcount());
  offset_ += static_cast<std::streamoff>(got);
  file.position = offset_;
  end_ += got;
  return got > 0;
}

Status ShardCheckpoint::PayloadReader::Changed() const {
  return Status::IOError(
      StrFormat("shard checkpoint %s: shard %zu payload changed since load",
                file_->path.c_str(), shard_));
}

}  // namespace secreta
