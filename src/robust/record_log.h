// RecordLog: the checkpoint file framing under CheckpointLog (sweeps and
// grids) and ShardCheckpoint (sharded runs), which keep their own record
// formats, indexes and locks. Spec: docs/FORMATS.md "Checkpoint logs".
//
//   <magic>\tv1\t<pin>\t<pin>...\n    each pin a %016llx hex u64
//   <record>                           one or more lines, each ending in \n
//   ...
//
// The pins name the work a log belongs to (dataset, workload, run and
// shard-plan fingerprints). Owners append whole records and flush each one,
// so a process killed mid-append leaves at most one torn record, at the
// tail. The next open cuts it off: what a resume appends after it must
// survive a later crash.

#ifndef SECRETA_ROBUST_RECORD_LOG_H_
#define SECRETA_ROBUST_RECORD_LOG_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <string>
#include <vector>

#include "common/status.h"

namespace secreta {

/// Opens the record log at `path` and leaves `*out` open for appending to it.
/// A missing or empty file gets the header. An existing file whose first
/// line is not the header of `magic` with `pins` fails with
/// FailedPrecondition, naming the file and the recorded and expected pins
/// (labelled by `pin_names`, e.g. "dataset/workload"), and is not written.
/// Otherwise `parse` reads one record (with ReadRecordLine) into the owner's
/// index per call until it returns false, and the file is cut at the end of
/// the last record it parsed.
Status OpenRecordLog(const std::string& path, const char* magic,
                     const char* pin_names, const std::vector<uint64_t>& pins,
                     const std::function<bool(std::istream&)>& parse,
                     std::ofstream* out);

/// std::getline for the lines of a record: false at end of file and for a
/// last line without its '\n', so a record counts only when it is whole.
bool ReadRecordLine(std::istream& in, std::string* line);

// Field codecs of the record formats. Doubles use C99 hex-floats (%a), the
// one printf/strtod pair that restores every bit.
std::string U64Hex(uint64_t value);  ///< zero-padded, 16 digits
bool DecodeU64Hex(const std::string& field, uint64_t* out);
bool DecodeU64(const std::string& field, uint64_t* out);
std::string EncodeDouble(double value);
bool DecodeDouble(const std::string& field, double* out);

}  // namespace secreta

#endif  // SECRETA_ROBUST_RECORD_LOG_H_
