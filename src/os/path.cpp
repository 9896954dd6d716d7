#include "os/path.hpp"

#include "util/strings.hpp"

namespace ep::os::path {

bool is_absolute(std::string_view p) { return !p.empty() && p[0] == '/'; }

bool is_dot_name(std::string_view name) { return name == "." || name == ".."; }

std::vector<std::string> components(std::string_view p) {
  return ep::split_nonempty(p, '/');
}

std::string join(std::string_view base, std::string_view rel) {
  if (is_absolute(rel) || base.empty()) return std::string(rel);
  if (rel.empty()) return std::string(base);
  std::string out(base);
  if (out.back() != '/') out += '/';
  out += rel;
  return out;
}

std::string normalize(std::string_view p) {
  const bool abs = is_absolute(p);
  std::vector<std::string> out;
  for (auto& c : components(p)) {
    if (c == ".") continue;
    if (c == "..") {
      if (!out.empty() && out.back() != "..") {
        out.pop_back();
      } else if (!abs) {
        out.push_back("..");  // relative paths keep leading ".."
      }
      // ".." at the root of an absolute path is dropped, as the kernel does
      continue;
    }
    out.push_back(std::move(c));
  }
  std::string joined = ep::join(out, "/");
  if (abs) return "/" + joined;
  return joined.empty() ? "." : joined;
}

std::string absolutize(std::string_view p, std::string_view cwd) {
  if (is_absolute(p)) return normalize(p);
  return normalize(join(cwd, p));
}

std::string basename(std::string_view p) {
  auto parts = components(p);
  if (parts.empty()) return is_absolute(p) ? "/" : ".";
  return parts.back();
}

std::string dirname(std::string_view p) {
  auto parts = components(p);
  if (parts.size() <= 1) return is_absolute(p) ? "/" : ".";
  parts.pop_back();
  std::string joined = ep::join(parts, "/");
  return is_absolute(p) ? "/" + joined : joined;
}

bool is_under(std::string_view p, std::string_view root) {
  if (root == "/") return is_absolute(p);
  if (p == root) return true;
  return p.size() > root.size() && ep::starts_with(p, root) &&
         p[root.size()] == '/';
}

}  // namespace ep::os::path
