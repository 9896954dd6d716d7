// Differential test: Vfs::resolve / resolve_parent against a reference
// that resolves the way the VFS first did — split the absolute path into a
// vector of component strings, push symlink targets' components onto it,
// and resolve a parent by re-joining its components into "/a/b" and
// resolving that. The production resolver walks string_view components
// instead; on every generated world and path both must return the same
// Ino / ResolvedParent, or the same Err.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "os/path.hpp"
#include "os/vfs.hpp"
#include "util/strings.hpp"

namespace ep::os {
namespace {

// --- the reference resolver --------------------------------------------------

SysResult<Ino> ref_resolve(const Vfs& vfs, std::string_view p,
                           std::string_view cwd, Uid uid, Gid gid,
                           bool follow_final = true) {
  if (p.empty()) return Err::noent;
  if (p.size() > kMaxPathLen) return Err::nametoolong;

  std::string abs = path::is_absolute(p) ? std::string(p)
                                         : path::join(cwd, p);
  std::vector<std::string> todo = path::components(abs);
  std::reverse(todo.begin(), todo.end());  // pop from the back

  Ino cur = vfs.root();
  int link_depth = 0;
  while (!todo.empty()) {
    std::string comp = std::move(todo.back());
    todo.pop_back();
    if (comp.size() > kMaxNameLen) return Err::nametoolong;
    if (comp == ".") continue;

    const Inode& dir = vfs.inode(cur);
    if (!dir.is_dir()) return Err::notdir;
    if (!Vfs::permits_with_root(dir, uid, gid, Perm::exec)) return Err::acces;

    if (comp == "..") {
      Ino up = vfs.parent_of(cur);
      cur = up == kNoIno ? vfs.root() : up;
      continue;
    }

    auto it = dir.entries.find(comp);
    if (it == dir.entries.end()) return Err::noent;
    Ino next = it->second;
    const Inode& child = vfs.inode(next);

    if (child.is_symlink()) {
      const bool is_final = todo.empty();
      if (is_final && !follow_final) {
        cur = next;
        continue;
      }
      if (++link_depth > kMaxSymlinkDepth) return Err::loop;
      std::vector<std::string> tgt = path::components(child.content);
      if (path::is_absolute(child.content)) cur = vfs.root();
      for (auto rit = tgt.rbegin(); rit != tgt.rend(); ++rit)
        todo.push_back(*rit);
      continue;
    }
    cur = next;
  }
  return cur;
}

SysResult<ResolvedParent> ref_resolve_parent(const Vfs& vfs,
                                             std::string_view p,
                                             std::string_view cwd, Uid uid,
                                             Gid gid) {
  if (p.empty()) return Err::noent;
  if (p.size() > kMaxPathLen) return Err::nametoolong;

  std::string abs = path::is_absolute(p) ? std::string(p)
                                         : path::join(cwd, p);
  auto comps = path::components(abs);
  if (comps.empty()) return Err::isdir;
  std::string leaf = comps.back();
  if (leaf.size() > kMaxNameLen) return Err::nametoolong;
  comps.pop_back();

  Ino dir = vfs.root();
  if (!comps.empty()) {
    std::string dir_path = "/" + ep::join(comps, "/");
    auto r = ref_resolve(vfs, dir_path, cwd, uid, gid);
    if (!r.ok()) return r.error();
    dir = r.value();
  }
  const Inode& d = vfs.inode(dir);
  if (!d.is_dir()) return Err::notdir;
  if (!Vfs::permits_with_root(d, uid, gid, Perm::exec)) return Err::acces;

  ResolvedParent out;
  out.dir_ino = dir;
  out.leaf = leaf;
  auto it = d.entries.find(leaf);
  out.leaf_ino = it == d.entries.end() ? kNoIno : it->second;
  std::string dir_canon = vfs.canonical_path(dir);
  out.canonical = dir_canon == "/" ? "/" + leaf : dir_canon + "/" + leaf;
  return out;
}

// --- comparison --------------------------------------------------------------

struct Caller {
  Uid uid;
  Gid gid;
};
constexpr Caller kCallers[] = {{kRootUid, kRootGid}, {1000, 1000}, {666, 666}};

/// Every error and success seen, so a test can prove its inputs reached
/// each branch of the resolver.
using Tally = std::map<Err, int>;

void expect_same(const Vfs& vfs, const std::string& p, const std::string& cwd,
                 Tally& tally) {
  for (const Caller& c : kCallers) {
    for (bool follow : {true, false}) {
      auto got = vfs.resolve(p, cwd, c.uid, c.gid, follow);
      auto want = ref_resolve(vfs, p, cwd, c.uid, c.gid, follow);
      ++tally[got.error()];
      ASSERT_EQ(got.error(), want.error())
          << "resolve '" << p << "' cwd '" << cwd << "' uid " << c.uid
          << " follow " << follow;
      if (got.ok()) {
        ASSERT_EQ(got.value(), want.value())
            << "resolve '" << p << "' cwd '" << cwd << "' uid " << c.uid;
      }
    }
    auto got = vfs.resolve_parent(p, cwd, c.uid, c.gid);
    auto want = ref_resolve_parent(vfs, p, cwd, c.uid, c.gid);
    ++tally[got.error()];
    ASSERT_EQ(got.error(), want.error())
        << "resolve_parent '" << p << "' cwd '" << cwd << "' uid " << c.uid;
    if (!got.ok()) continue;
    const ResolvedParent& g = got.value();
    const ResolvedParent& w = want.value();
    ASSERT_EQ(g.dir_ino, w.dir_ino) << "resolve_parent '" << p << "'";
    ASSERT_EQ(g.leaf, w.leaf) << "resolve_parent '" << p << "'";
    ASSERT_EQ(g.leaf_ino, w.leaf_ino) << "resolve_parent '" << p << "'";
    ASSERT_EQ(g.canonical, w.canonical) << "resolve_parent '" << p << "'";
  }
}

std::string repeat(std::string_view unit, std::size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += unit;
  return out;
}

// --- hand-picked corners -----------------------------------------------------

TEST(ResolveDifferential, HandPickedCorners) {
  Vfs vfs;
  const Ino root = vfs.root();
  auto dir = [&](Ino at, const std::string& name, unsigned mode = 0755,
                 Uid uid = kRootUid) {
    return vfs.create_dir(at, name, uid, uid, mode).value();
  };
  auto link = [&](Ino at, const std::string& name, const std::string& to) {
    return vfs.create_symlink(at, name, kRootUid, kRootGid, to).value();
  };
  Ino etc = dir(root, "etc");
  ASSERT_TRUE(vfs.create_file(etc, "passwd", kRootUid, kRootGid, 0644).ok());
  Ino home = dir(root, "home");
  dir(home, "alice", 0755, 1000);
  Ino secret = dir(root, "secret", 0700);
  ASSERT_TRUE(vfs.create_file(secret, "f", kRootUid, kRootGid, 0644).ok());
  Ino noexec = dir(root, "noexec", 0644);  // no x bit: even root is refused
  ASSERT_TRUE(vfs.create_file(noexec, "g", kRootUid, kRootGid, 0644).ok());
  Ino l = dir(root, "l");
  link(l, "abs", "/etc");
  link(l, "rel", "../etc");
  link(l, "dotdot", "..");
  link(l, "empty", "");
  link(l, "slash", "/");
  link(l, "self", "self");
  link(l, "loop1", "loop2");
  link(l, "loop2", "/l/loop1");
  link(l, "secretlink", "/secret/f");
  // chain0 -> chain1 -> ... -> chain8 -> /etc/passwd: following chain0
  // takes kMaxSymlinkDepth + 1 links, chain1 exactly kMaxSymlinkDepth.
  for (int i = 0; i <= kMaxSymlinkDepth; ++i) {
    std::string to = i == kMaxSymlinkDepth
                         ? "/etc/passwd"
                         : "chain" + std::to_string(i + 1);
    link(l, "chain" + std::to_string(i), to);
  }
  Ino deep = root;
  std::string deep_path;
  for (int i = 0; i < 20; ++i) {
    std::string name(250, static_cast<char>('a' + i));
    deep = dir(deep, name);
    deep_path += "/" + name;
  }
  ASSERT_GT(deep_path.size(), kMaxPathLen);

  const std::string long_name(kMaxNameLen + 1, 'n');
  const std::string max_name(kMaxNameLen, 'n');
  const std::vector<std::string> paths = {
      ".", "..", "/", "//", "///", "/etc/", "/etc//passwd", "///etc//passwd",
      "/etc/passwd/", "/etc/passwd/.", "/etc/passwd/..", "/etc/./passwd",
      "/../..", "/../etc/../etc/passwd", "passwd", "../etc/passwd", "./",
      "alice", "alice/", "alice/..", "/l/abs/passwd", "/l/abs", "/l/abs/",
      "/l/rel/passwd", "/l/rel", "/l/dotdot", "/l/dotdot/etc/passwd",
      "/l/empty", "/l/empty/etc", "/l/slash", "/l/slash/etc", "/l/self",
      "/l/self/x", "/l/loop1", "/l/loop1/x", "/l/loop2", "/l/chain0",
      "/l/chain1", "/l/chain0/x", "/l/chain8/", "/l/secretlink",
      "/secret/f", "/secret", "/secret/", "/secret/x", "/noexec/g",
      "/noexec", "/noexec/.", "/etc/" + long_name, "/" + long_name + "/x",
      long_name, "/etc/" + max_name, "/" + repeat("./", 2049),
      "/" + repeat("./", 2047), repeat("../", 1366),
      deep_path.substr(0, 4000), "/missing/x", "/missing/x/",
  };
  const std::vector<std::string> cwds = {
      "/", "/etc", "/home", "/home/alice/", "/l", "/secret", "/noexec",
      "/missing", "", "etc", deep_path, deep_path + "/..",
  };
  Tally tally;
  for (const auto& cwd : cwds)
    for (const auto& p : paths) expect_same(vfs, p, cwd, tally);
  for (Err e : {Err::ok, Err::noent, Err::notdir, Err::loop, Err::acces,
                Err::nametoolong, Err::isdir})
    EXPECT_GT(tally[e], 0) << "no case reached " << err_name(e);
}

// --- seeded generated worlds -------------------------------------------------

/// A small deterministic generator: mt19937's output sequence is fixed by
/// the standard, unlike the std distributions.
class Gen {
 public:
  explicit Gen(std::uint32_t seed) : rng_(seed) {}
  std::size_t below(std::size_t n) { return rng_() % n; }
  bool chance(unsigned pct) { return below(100) < pct; }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[below(v.size())];
  }

 private:
  std::mt19937 rng_;
};

const std::vector<std::string> kNames = {"a", "b", "c", "lnk", "d.d"};

std::string random_component(Gen& g) {
  switch (g.below(20)) {
    case 0:
    case 1: return ".";
    case 2:
    case 3: return "..";
    case 4: return "";  // doubles the separator
    case 5: return std::string(kMaxNameLen + 1, 'a');
    default: return g.pick(kNames);
  }
}

std::string random_path(Gen& g, std::size_t max_comps) {
  std::string p = g.chance(50) ? "/" : "";
  std::size_t n = g.below(max_comps + 1);
  for (std::size_t i = 0; i < n; ++i) {
    p += random_component(g);
    if (i + 1 < n || g.chance(25)) p += "/";  // sometimes a trailing '/'
  }
  return p;
}

/// A random namespace: directories of mixed owners and modes (some with
/// no x bit), files, and symlinks whose targets are random paths — so
/// absolute and relative chains, dangling links and loops all occur.
Vfs random_world(Gen& g, std::vector<std::string>& dir_paths) {
  Vfs vfs;
  std::vector<Ino> dirs{vfs.root()};
  const std::vector<unsigned> modes = {0755, 0755, 0755, 0700,
                                       0711, 0600, 0644, 0750};
  const std::vector<Uid> owners = {kRootUid, 1000, 666};
  std::size_t n = 10 + g.below(30);
  for (std::size_t i = 0; i < n; ++i) {
    Ino at = g.pick(dirs);
    const std::string& name = g.pick(kNames);
    Uid owner = g.pick(owners);
    switch (g.below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        auto d = vfs.create_dir(at, name, owner, owner, g.pick(modes));
        if (d.ok()) dirs.push_back(d.value());
        break;
      }
      case 4:
      case 5:
        (void)vfs.create_file(at, name, owner, owner, 0644);
        break;
      default:
        (void)vfs.create_symlink(at, name, owner, owner, random_path(g, 5));
        break;
    }
  }
  for (Ino d : dirs) dir_paths.push_back(vfs.canonical_path(d));
  return vfs;
}

TEST(ResolveDifferential, SeededRandomWorldsAndPaths) {
  constexpr int kWorlds = 60;
  constexpr int kPathsPerWorld = 150;
  Tally tally;
  for (int w = 0; w < kWorlds; ++w) {
    Gen g(static_cast<std::uint32_t>(0x5eed0000u + w));
    std::vector<std::string> dir_paths;
    Vfs vfs = random_world(g, dir_paths);
    ASSERT_TRUE(vfs.check_invariants().empty());
    for (int i = 0; i < kPathsPerWorld; ++i) {
      std::string cwd;
      switch (g.below(8)) {
        case 0: cwd = "/"; break;
        case 1: cwd = random_path(g, 3); break;
        // Near the path-length limit, so a relative parent lookup crosses it.
        case 2: cwd = "/" + repeat("a/./", 1023 + g.below(3)); break;
        default: cwd = g.pick(dir_paths); break;
      }
      std::string p = random_path(g, 6);
      if (g.chance(3)) p = repeat("./", 2046 + g.below(4)) + p;
      expect_same(vfs, p, cwd, tally);
      if (HasFatalFailure()) return;
    }
  }
  for (Err e : {Err::ok, Err::noent, Err::notdir, Err::loop, Err::acces,
                Err::nametoolong, Err::isdir})
    EXPECT_GT(tally[e], 0) << "no generated case reached " << err_name(e);
}

}  // namespace
}  // namespace ep::os
