#include "serialize/frame.h"

#include "common/crc32.h"
#include "common/strings.h"
#include "serialize/coding.h"

namespace flor {

void AppendFrame(std::string* dst, const std::string& payload) {
  PutFixed32(dst, Crc32c(payload.data(), payload.size()));
  PutVarint64(dst, payload.size());
  dst->append(payload);
}

Status FrameReader::Next(std::string* out) {
  if (done()) return Status::NotFound("end of frames");
  Decoder dec(data_.data() + pos_, data_.size() - pos_);
  uint32_t crc;
  FLOR_RETURN_IF_ERROR(dec.GetFixed32(&crc));
  uint64_t len;
  FLOR_RETURN_IF_ERROR(dec.GetVarint64(&len));
  if (dec.remaining() < len)
    return Status::Corruption("frame payload truncated");
  const size_t header = (data_.size() - pos_) - dec.remaining();
  const char* payload = data_.data() + pos_ + header;
  if (Crc32c(payload, len) != crc)
    return Status::Corruption("frame checksum mismatch");
  out->assign(payload, len);
  pos_ += header + len;
  return Status::OK();
}

Result<std::vector<std::string>> ReadFrames(const std::string& data) {
  std::vector<std::string> out;
  FrameReader reader(data);
  while (!reader.done()) {
    std::string payload;
    FLOR_RETURN_IF_ERROR(reader.Next(&payload));
    out.push_back(std::move(payload));
  }
  return out;
}

std::string EncodeSections(const std::string& tag,
                           const std::vector<std::string>& sections) {
  std::string out;
  AppendFrame(&out, StrCat(tag, "\t", sections.size()));
  for (const std::string& section : sections) AppendFrame(&out, section);
  return out;
}

Result<std::vector<std::string>> DecodeSections(const std::string& tag,
                                                const std::string& data) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> frames, ReadFrames(data));
  if (frames.empty())
    return Status::Corruption(StrCat(tag, ": missing header frame"));
  const std::string& header = frames[0];
  if (header.size() <= tag.size() ||
      header.compare(0, tag.size(), tag) != 0 || header[tag.size()] != '\t') {
    return Status::Corruption(StrCat("bad envelope header (expected tag '",
                                     tag, "')"));
  }
  uint64_t declared = 0;
  if (!ParseU64(header.substr(tag.size() + 1), &declared))
    return Status::Corruption(StrCat(tag, ": unparseable section count"));
  if (declared != frames.size() - 1) {
    return Status::Corruption(
        StrCat(tag, ": header declares ", declared, " sections but ",
               frames.size() - 1,
               " are present (truncated at a frame boundary?)"));
  }
  frames.erase(frames.begin());
  return frames;
}

}  // namespace flor
