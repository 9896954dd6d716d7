// Path manipulation for the simulated file system.
//
// Paths are UNIX-style strings. Lexical normalization here never touches
// the file system; symlink-aware resolution lives in Vfs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ep::os::path {

/// True if p starts with '/'.
bool is_absolute(std::string_view p);

/// True for the names "." and "..", which never name a directory entry.
bool is_dot_name(std::string_view name);

/// Split into components, dropping empty ones ("/a//b" -> {"a","b"}).
std::vector<std::string> components(std::string_view p);

/// Join two paths; if `rel` is absolute it wins.
std::string join(std::string_view base, std::string_view rel);

/// Lexically normalize: collapse "//" and "." and apply ".." against named
/// components ("/a/b/../c" -> "/a/c"; ".." at the root is dropped).
/// Relative inputs are normalized relative ("a/../b" -> "b").
std::string normalize(std::string_view p);

/// Make p absolute against cwd, then normalize.
std::string absolutize(std::string_view p, std::string_view cwd);

/// Final component ("/a/b" -> "b", "/" -> "/").
std::string basename(std::string_view p);

/// Everything before the final component ("/a/b" -> "/a", "b" -> ".").
std::string dirname(std::string_view p);

/// True if `p` is lexically inside `root` (or equal). Both must be
/// normalized absolute paths.
bool is_under(std::string_view p, std::string_view root);

}  // namespace ep::os::path
