// Checksummed frames — the unit of checkpoint storage.
//
// A frame is [fixed32 crc][varint payload_len][payload]. The crc covers the
// payload only. Checkpoint files are a concatenation of frames; corruption
// of any byte is detected on read (property-tested via
// MemFileSystem::CorruptByte).
//
// A sectioned envelope wraps a list of byte sections for transport — the
// worker result files of process replay ("florres1") and the service's
// wire messages ("florwir1\t<req|res>") both use it:
//   frame 0  header  "<tag>\t<n>"   (n = number of sections)
//   frame 1..n       one section each
// The header count makes truncation at an exact frame boundary — the one
// cut a bare frame stream cannot see — detectable; every other cut or
// mutation is caught by the per-frame CRC. Decoding a torn or mutated
// envelope therefore always fails with Corruption.

#ifndef FLOR_SERIALIZE_FRAME_H_
#define FLOR_SERIALIZE_FRAME_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace flor {

/// Appends one frame wrapping `payload` to `dst`.
void AppendFrame(std::string* dst, const std::string& payload);

/// Reads all frames from `data`; fails with Corruption on any checksum or
/// structural error.
Result<std::vector<std::string>> ReadFrames(const std::string& data);

/// Encodes `sections` as a sectioned envelope whose header carries `tag`.
std::string EncodeSections(const std::string& tag,
                           const std::vector<std::string>& sections);

/// Decodes a sectioned envelope, requiring header tag `tag`. Any
/// truncation (including empty input or a cut at a frame boundary), a
/// different tag, or a byte mutation fails with Corruption.
Result<std::vector<std::string>> DecodeSections(const std::string& tag,
                                                const std::string& data);

/// Cursor-style reader for streaming consumption.
class FrameReader {
 public:
  explicit FrameReader(const std::string& data) : data_(data) {}

  /// Reads the next frame payload into `out`. Returns NotFound at EOF,
  /// Corruption on checksum mismatch.
  Status Next(std::string* out);

  bool done() const { return pos_ >= data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace flor

#endif  // FLOR_SERIALIZE_FRAME_H_
