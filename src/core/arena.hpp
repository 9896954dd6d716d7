// The same-host shared-memory data plane (docs/WIRE_FORMAT.md, "The shm
// arena"): one mmap'd file holding the binary-encoded plan, written once
// by the coordinator and mapped by every worker process.
//
// Layout: a fixed 24-byte header (magic, byte-order tag, version, total
// size), then the binary-encoded InjectionPlan, exactly to the end of
// the file. A worker decodes its plan straight out of its own mapping
// instead of parsing a JSON plan file. Lease reports do not live here:
// on every data plane they return as the binary frame after DONE on the
// worker's session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ep::core {

/// An arena file that cannot be created, mapped, or trusted: I/O
/// failure, bad magic/version, foreign endianness, or a declared size
/// the file does not hold.
class ArenaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ShmArena {
 public:
  /// Coordinator side: create (truncating) `path`, size it for the
  /// header plus `plan_binary`, map it, and freeze the plan into it.
  /// Throws ArenaError on any failure.
  static ShmArena create(const std::string& path,
                         const std::string& plan_binary);
  /// Worker side: map an existing arena read-only and validate its
  /// header against the file's actual size. Throws ArenaError when the
  /// file is missing, truncated, foreign, or inconsistent.
  static ShmArena open(const std::string& path);

  ShmArena(ShmArena&& other) noexcept;
  ShmArena& operator=(ShmArena&& other) noexcept;
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;
  ~ShmArena();

  const std::string& path() const { return path_; }
  /// The whole file: header, then plan.
  std::size_t size() const { return size_; }

  /// The frozen binary-encoded plan region.
  const std::uint8_t* plan_data() const;
  std::size_t plan_size() const;

  /// Bytes ahead of the plan: magic, byte-order tag, version, total.
  static constexpr std::size_t kHeaderBytes = 24;

 private:
  ShmArena() = default;
  void close() noexcept;

  std::string path_;
  int fd_ = -1;
  std::uint8_t* map_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ep::core
