#include "core/arena.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

namespace ep::core {

namespace {

// Header layout (kHeaderBytes = 24), then the plan to the end of file:
//   0  magic "EPARENA1"
//   8  u32 byte-order tag
//  12  u32 version
//  16  u64 total bytes (must equal the file size)
constexpr char kMagic[8] = {'E', 'P', 'A', 'R', 'E', 'N', 'A', '1'};
constexpr std::uint32_t kEndianTag = 0x0A0B0C0D;
constexpr std::uint32_t kVersion = 2;

[[noreturn]] void fail(const std::string& path, const std::string& msg) {
  throw ArenaError("arena '" + path + "': " + msg);
}

[[noreturn]] void sys_fail(const std::string& path, const std::string& what) {
  fail(path, what + ": " + std::strerror(errno));
}

std::uint32_t bswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
         (v << 24);
}

std::uint32_t get_u32(const std::uint8_t* p, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, p + off, sizeof v);
  return v;
}

}  // namespace

ShmArena ShmArena::create(const std::string& path,
                          const std::string& plan_binary) {
  ShmArena a;
  a.path_ = path;
  a.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (a.fd_ < 0) sys_fail(path, "open");
  a.size_ = kHeaderBytes + plan_binary.size();
  if (::ftruncate(a.fd_, static_cast<off_t>(a.size_)) < 0)
    sys_fail(path, "ftruncate");
  void* map = ::mmap(nullptr, a.size_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     a.fd_, 0);
  if (map == MAP_FAILED) sys_fail(path, "mmap");
  a.map_ = static_cast<std::uint8_t*>(map);

  const std::uint64_t total = a.size_;
  std::memcpy(a.map_, kMagic, sizeof kMagic);
  std::memcpy(a.map_ + 8, &kEndianTag, sizeof kEndianTag);
  std::memcpy(a.map_ + 12, &kVersion, sizeof kVersion);
  std::memcpy(a.map_ + 16, &total, sizeof total);
  std::memcpy(a.map_ + kHeaderBytes, plan_binary.data(), plan_binary.size());
  return a;
}

ShmArena ShmArena::open(const std::string& path) {
  ShmArena a;
  a.path_ = path;
  a.fd_ = ::open(path.c_str(), O_RDONLY);
  if (a.fd_ < 0) sys_fail(path, "open");
  struct stat st;
  if (::fstat(a.fd_, &st) < 0) sys_fail(path, "fstat");
  a.size_ = static_cast<std::size_t>(st.st_size);
  if (a.size_ < kHeaderBytes)
    fail(path, "truncated header (file holds " + std::to_string(a.size_) +
                   " bytes, need at least " + std::to_string(kHeaderBytes) +
                   ")");
  void* map = ::mmap(nullptr, a.size_, PROT_READ, MAP_SHARED, a.fd_, 0);
  if (map == MAP_FAILED) sys_fail(path, "mmap");
  a.map_ = static_cast<std::uint8_t*>(map);

  if (std::memcmp(a.map_, kMagic, sizeof kMagic) != 0)
    fail(path, "not an arena file (bad magic)");
  std::uint32_t tag = get_u32(a.map_, 8);
  if (tag != kEndianTag) {
    if (bswap32(tag) == kEndianTag)
      fail(path,
           "written with foreign endianness (byte-order tag is "
           "byte-swapped)");
    fail(path, "corrupt byte-order tag");
  }
  std::uint32_t version = get_u32(a.map_, 12);
  if (version != kVersion)
    fail(path, "unsupported arena version " + std::to_string(version) +
                   " (this build reads " + std::to_string(kVersion) + ")");
  std::uint64_t total;
  std::memcpy(&total, a.map_ + 16, sizeof total);
  if (total != a.size_)
    fail(path, "declares " + std::to_string(total) + " bytes but the file "
                   "holds " + std::to_string(a.size_) + " (truncated?)");
  return a;
}

const std::uint8_t* ShmArena::plan_data() const {
  return map_ + kHeaderBytes;
}

std::size_t ShmArena::plan_size() const { return size_ - kHeaderBytes; }

ShmArena::ShmArena(ShmArena&& other) noexcept { *this = std::move(other); }

ShmArena& ShmArena::operator=(ShmArena&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    map_ = other.map_;
    size_ = other.size_;
    other.fd_ = -1;
    other.map_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

ShmArena::~ShmArena() { close(); }

void ShmArena::close() noexcept {
  if (map_) ::munmap(map_, size_);
  if (fd_ >= 0) ::close(fd_);
  map_ = nullptr;
  fd_ = -1;
  size_ = 0;
}

}  // namespace ep::core
