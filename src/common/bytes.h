// Little-endian byte encoding helpers for the SBC1 reader and writer
// (data/format). All on-disk integers in SECRETA are little-endian
// regardless of host order — see docs/FORMATS.md.

#ifndef SECRETA_COMMON_BYTES_H_
#define SECRETA_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace secreta {
namespace bytes {

inline void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutF64(std::string* out, double v) {
  uint64_t raw = 0;
  std::memcpy(&raw, &v, sizeof raw);
  PutU64(out, raw);
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                               (static_cast<uint16_t>(p[1]) << 8));
}

inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline int32_t GetI32(const uint8_t* p) {
  return static_cast<int32_t>(GetU32(p));
}

inline double GetF64(const uint8_t* p) {
  uint64_t raw = GetU64(p);
  double v = 0;
  std::memcpy(&v, &raw, sizeof v);
  return v;
}

}  // namespace bytes
}  // namespace secreta

#endif  // SECRETA_COMMON_BYTES_H_
