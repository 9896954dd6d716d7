#include "os/vfs.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ep::os {

Vfs::Vfs() {
  slots_.emplace_back();  // slot 0: no inode has ino 0
  root_ = alloc(FileType::directory, kRootUid, kRootGid, 0755);
}

Ino Vfs::alloc(FileType type, Uid uid, Gid gid, unsigned mode) {
  Ino ino = static_cast<Ino>(slots_.size());
  auto node = std::make_shared<Inode>();
  node->ino = ino;
  node->type = type;
  node->uid = uid;
  node->gid = gid;
  node->mode = mode;
  slots_.push_back(Slot{std::move(node), kNoIno, {}});
  return ino;
}

const Vfs::Slot& Vfs::slot(Ino ino) const {
  if (!exists(ino))
    throw std::out_of_range("vfs: no inode " + std::to_string(ino));
  return slots_[ino];
}

void Vfs::link(Ino dir, const std::string& name, Ino ino) {
  mutate(dir).entries.emplace(name, ino);
  Slot& s = slots_[ino];
  s.parent = dir;
  s.name = name;
}

void Vfs::unlink_slot(Ino ino) {
  Slot& s = slots_[ino];
  s.parent = kNoIno;
  s.name.clear();
}

Inode& Vfs::mutate(Ino ino) {
  (void)slot(ino);  // throws std::out_of_range for a missing ino
  std::shared_ptr<Inode>& node = slots_[ino].node;
  // use_count()==1 means this Vfs holds the only reference: nothing to
  // unshare, and no other thread can race us (references into this Vfs's
  // slots are confined to the thread that owns the world). A shared node
  // is still alive in the prototype after the swap, so previously taken
  // const references stay valid — they just see the pre-write state.
  if (node.use_count() > 1) node = std::make_shared<Inode>(*node);
  return *node;
}

void Vfs::wild_write(Ino ino, std::size_t overflow, char fill) {
  Inode& node = mutate(ino);
  std::size_t n = std::min(overflow, node.redzone.size());
  for (std::size_t i = 0; i < n; ++i) node.redzone[i] = fill;
}

std::vector<Ino> Vfs::all_inos_sorted() const {
  std::vector<Ino> inos;
  inos.reserve(slots_.size() - 1);
  for (Ino ino = 1; exists(ino); ++ino) inos.push_back(ino);
  return inos;
}

bool Vfs::permits(const Inode& node, Uid uid, Gid gid, Perm perm) {
  unsigned shift = 0;
  if (node.uid == uid) {
    shift = 6;
  } else if (node.gid == gid) {
    shift = 3;
  }
  unsigned bit = 0;
  switch (perm) {
    case Perm::read: bit = 04u << shift; break;
    case Perm::write: bit = 02u << shift; break;
    case Perm::exec: bit = 01u << shift; break;
  }
  return (node.mode & bit) != 0;
}

bool Vfs::permits_with_root(const Inode& node, Uid uid, Gid gid, Perm perm) {
  if (uid == kRootUid) {
    // Root bypasses read/write checks; exec still requires some x bit,
    // matching UNIX semantics.
    if (perm != Perm::exec) return true;
    return (node.mode & (kOwnerExec | kGroupExec | kOtherExec)) != 0;
  }
  return permits(node, uid, gid, perm);
}

namespace {

/// The components still to walk, as a stack of path texts: the path (and
/// the cwd above it when the path is relative), then one text per symlink
/// being followed. Views into the caller's path and into symlink inodes,
/// which a const walk never mutates; no component is ever copied.
class ComponentStack {
 public:
  void push(std::string_view text) {
    texts_[n_++] = text;
    drop_separators();
  }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  /// Precondition: !empty().
  std::string_view pop() {
    std::string_view& top = texts_[n_ - 1];
    std::string_view comp = top.substr(0, top.find('/'));
    top.remove_prefix(comp.size());
    drop_separators();
    return comp;
  }

 private:
  /// Strip the top text's leading '/'s; drop texts with nothing left.
  void drop_separators() {
    while (n_ > 0) {
      std::string_view& top = texts_[n_ - 1];
      std::size_t i = top.find_first_not_of('/');
      if (i != std::string_view::npos) {
        top.remove_prefix(i);
        return;
      }
      --n_;
    }
  }

  // The path, the cwd, and one text per followed link: walk() refuses
  // the (kMaxSymlinkDepth+1)th link before pushing it.
  std::array<std::string_view, 2 + kMaxSymlinkDepth> texts_;
  std::size_t n_ = 0;
};

/// Length of the normalized absolute path made of p's components ("/a/b"
/// for "a//b/"): each component costs its size plus one separator.
std::size_t joined_length(std::string_view p) {
  std::size_t n = 0;
  bool in_comp = false;
  for (char c : p) {
    // A component's first byte also pays for the '/' before it.
    if (c != '/') n += in_comp ? 1 : 2;
    in_comp = c != '/';
  }
  return n;
}

}  // namespace

SysResult<Ino> Vfs::walk(std::string_view rel, std::string_view cwd, Uid uid,
                         Gid gid, bool follow_final) const {
  ComponentStack todo;
  todo.push(rel);
  if (!path::is_absolute(rel)) todo.push(cwd);

  Ino cur = root_;
  int link_depth = 0;
  while (!todo.empty()) {
    std::string_view comp = todo.pop();
    if (comp.size() > kMaxNameLen) return Err::nametoolong;
    if (comp == ".") continue;

    const Inode& dir = inode(cur);
    if (!dir.is_dir()) return Err::notdir;
    if (!permits_with_root(dir, uid, gid, Perm::exec)) return Err::acces;

    if (comp == "..") {
      Ino up = slots_[cur].parent;
      cur = up == kNoIno ? root_ : up;
      continue;
    }

    auto it = dir.entries.find(comp);
    if (it == dir.entries.end()) return Err::noent;
    Ino next = it->second;
    const Inode& child = inode(next);

    if (child.is_symlink()) {
      if (todo.empty() && !follow_final) {
        cur = next;
        continue;
      }
      if (++link_depth > kMaxSymlinkDepth) return Err::loop;
      // Walk the link target next; absolute targets restart at /.
      if (path::is_absolute(child.content)) cur = root_;
      // else: resolution continues from the directory holding the link.
      todo.push(child.content);
      continue;
    }
    cur = next;
  }
  return cur;
}

SysResult<Ino> Vfs::resolve(std::string_view p, std::string_view cwd, Uid uid,
                            Gid gid, bool follow_final) const {
  if (p.empty()) return Err::noent;
  if (p.size() > kMaxPathLen) return Err::nametoolong;
  return walk(p, cwd, uid, gid, follow_final);
}

SysResult<ResolvedParent> Vfs::resolve_parent(std::string_view p,
                                              std::string_view cwd, Uid uid,
                                              Gid gid) const {
  if (p.empty()) return Err::noent;
  if (p.size() > kMaxPathLen) return Err::nametoolong;

  // The leaf is p's last component: a relative p always has one, and an
  // absolute p without one is "/", which has no parent entry.
  std::size_t leaf_end = p.find_last_not_of('/');
  if (leaf_end == std::string_view::npos) return Err::isdir;
  std::size_t leaf_begin = p.find_last_of('/', leaf_end);
  leaf_begin = leaf_begin == std::string_view::npos ? 0 : leaf_begin + 1;
  std::string_view leaf = p.substr(leaf_begin, leaf_end + 1 - leaf_begin);
  if (leaf.size() > kMaxNameLen) return Err::nametoolong;

  // The directory part, walked as the absolute path it names: that path
  // obeys the path-length limit too.
  std::string_view dir_part = p.substr(0, leaf_begin);
  std::size_t dir_len = joined_length(dir_part);
  if (!path::is_absolute(dir_part)) dir_len += joined_length(cwd);
  if (dir_len > kMaxPathLen) return Err::nametoolong;
  auto r = walk(dir_part, cwd, uid, gid, /*follow_final=*/true);
  if (!r.ok()) return r.error();
  Ino dir = r.value();

  const Inode& d = inode(dir);
  if (!d.is_dir()) return Err::notdir;
  if (!permits_with_root(d, uid, gid, Perm::exec)) return Err::acces;

  ResolvedParent out;
  out.dir_ino = dir;
  out.leaf = std::string(leaf);
  auto it = d.entries.find(leaf);
  out.leaf_ino = it == d.entries.end() ? kNoIno : it->second;
  out.canonical = path_below(dir, leaf);
  return out;
}

std::string Vfs::canonical_path(Ino ino) const { return path_below(ino, {}); }

std::string Vfs::path_below(Ino dir, std::string_view leaf) const {
  // First pass sizes the string (and spots a detached chain); the second
  // writes the names right to left into their final places.
  std::size_t len = leaf.empty() ? 0 : leaf.size() + 1;
  for (Ino cur = dir; cur != root_; cur = slots_[cur].parent) {
    if (!exists(cur) || slots_[cur].parent == kNoIno) {
      std::string out = "<detached:" + std::to_string(dir) + ">";
      if (!leaf.empty()) out.append("/").append(leaf);
      return out;
    }
    len += slots_[cur].name.size() + 1;
  }
  if (len == 0) return "/";
  std::string out(len, '/');
  std::size_t end = len;
  auto put = [&](std::string_view name) {
    end -= name.size();
    name.copy(out.data() + end, name.size());
    --end;  // the '/' before it is already in place
  };
  if (!leaf.empty()) put(leaf);
  for (Ino cur = dir; cur != root_; cur = slots_[cur].parent)
    put(slots_[cur].name);
  return out;
}

SysResult<std::string> Vfs::canonicalize(std::string_view p,
                                         std::string_view cwd, Uid uid,
                                         Gid gid) const {
  auto r = resolve(p, cwd, uid, gid, /*follow_final=*/true);
  if (!r.ok()) return r.error();
  return canonical_path(r.value());
}

namespace {

/// Why `name` cannot be added to `d`, or Err::ok. The dot names always
/// name an existing directory.
Err new_entry_error(const Inode& d, const std::string& name) {
  if (!d.is_dir()) return Err::notdir;
  if (name.empty() || name.size() > kMaxNameLen) return Err::nametoolong;
  if (path::is_dot_name(name) || d.entries.count(name)) return Err::exist;
  return Err::ok;
}

}  // namespace

SysResult<Ino> Vfs::create_file(Ino dir, const std::string& name, Uid uid,
                                Gid gid, unsigned mode, std::string content) {
  if (Err e = new_entry_error(inode(dir), name); e != Err::ok) return e;
  Ino ino = alloc(FileType::regular, uid, gid, mode);
  mutate(ino).content = std::move(content);
  link(dir, name, ino);
  return ino;
}

SysResult<Ino> Vfs::create_dir(Ino dir, const std::string& name, Uid uid,
                               Gid gid, unsigned mode) {
  if (Err e = new_entry_error(inode(dir), name); e != Err::ok) return e;
  Ino ino = alloc(FileType::directory, uid, gid, mode);
  link(dir, name, ino);
  return ino;
}

SysResult<Ino> Vfs::create_symlink(Ino dir, const std::string& name, Uid uid,
                                   Gid gid, std::string target) {
  if (Err e = new_entry_error(inode(dir), name); e != Err::ok) return e;
  Ino ino = alloc(FileType::symlink, uid, gid, 0777);
  mutate(ino).content = std::move(target);
  link(dir, name, ino);
  return ino;
}

SysStatus Vfs::remove(Ino dir, const std::string& name) {
  const Inode& d = inode(dir);
  auto it = d.entries.find(name);
  if (it == d.entries.end()) return Err::noent;
  if (inode(it->second).is_dir()) return Err::isdir;
  // The inode is detached, not destroyed: open descriptors keep it alive,
  // which is what makes fd-based (fexecve-style) checks immune to the
  // unlink/recreate perturbation.
  Ino victim = it->second;
  mutate(dir).entries.erase(name);  // by key: `it` dies with the unshare
  unlink_slot(victim);
  return ok_status();
}

SysStatus Vfs::remove_dir(Ino dir, const std::string& name) {
  const Inode& d = inode(dir);
  auto it = d.entries.find(name);
  if (it == d.entries.end()) return Err::noent;
  const Inode& victim = inode(it->second);
  if (!victim.is_dir()) return Err::notdir;
  if (!victim.entries.empty()) return Err::notempty;
  Ino vino = it->second;
  mutate(dir).entries.erase(name);
  unlink_slot(vino);
  return ok_status();
}

SysStatus Vfs::rename_entry(Ino src_dir, const std::string& src_name,
                            Ino dst_dir, const std::string& dst_name) {
  const Inode& sd = inode(src_dir);
  auto it = sd.entries.find(src_name);
  if (it == sd.entries.end()) return Err::noent;
  if (dst_name.empty() || dst_name.size() > kMaxNameLen)
    return Err::nametoolong;
  if (path::is_dot_name(dst_name)) return Err::inval;
  Ino moving = it->second;
  const Inode& dd = inode(dst_dir);
  if (!dd.is_dir()) return Err::notdir;
  // A directory moved below itself would cut its subtree off the root
  // and close a cycle in the parent links.
  if (inode(moving).is_dir())
    for (Ino up = dst_dir; up != kNoIno; up = slots_[up].parent)
      if (up == moving) return Err::inval;
  // Replace an existing non-directory target, as rename(2) does.
  auto dit = dd.entries.find(dst_name);
  if (dit != dd.entries.end()) {
    if (dit->second == moving) return ok_status();
    if (inode(dit->second).is_dir()) return Err::isdir;
    Ino victim = dit->second;
    mutate(dst_dir).entries.erase(dst_name);
    unlink_slot(victim);
  }
  mutate(src_dir).entries.erase(src_name);
  link(dst_dir, dst_name, moving);
  return ok_status();
}

void Vfs::detach(Ino dir, const std::string& name) {
  const Inode& d = inode(dir);
  auto it = d.entries.find(name);
  if (it == d.entries.end()) return;
  Ino victim = it->second;
  mutate(dir).entries.erase(name);
  unlink_slot(victim);
}

SysResult<StatInfo> Vfs::stat_inode(Ino ino) const {
  if (!exists(ino)) return Err::noent;
  const Inode& n = inode(ino);
  StatInfo s;
  s.ino = n.ino;
  s.type = n.type;
  s.uid = n.uid;
  s.gid = n.gid;
  s.mode = n.mode;
  s.size = n.content.size();
  s.trusted = n.trusted;
  return s;
}

std::vector<std::string> Vfs::list_all_paths() const {
  std::vector<std::string> out;
  // Depth-first over the namespace.
  std::vector<Ino> stack{root_};
  while (!stack.empty()) {
    Ino cur = stack.back();
    stack.pop_back();
    const Inode& n = inode(cur);
    if (cur != root_) out.push_back(canonical_path(cur));
    if (n.is_dir())
      for (const auto& [name, child] : n.entries) stack.push_back(child);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Vfs::check_invariants() const {
  // Detached (unlinked but still allocated) inodes are legal; the checks
  // below verify that the *linked* namespace is internally consistent,
  // from each entry to its slot and from each linked slot to its entry.
  for (Ino ino = 1; exists(ino); ++ino) {
    const Slot& s = slots_[ino];
    if (s.node->is_dir()) {
      for (const auto& [name, child] : s.node->entries) {
        if (path::is_dot_name(name))
          return "entry named " + name + " in ino " + std::to_string(ino);
        if (!exists(child))
          return "dangling entry " + name + " in ino " + std::to_string(ino);
        if (slots_[child].parent != ino)
          return "parent link mismatch for " + name;
        if (slots_[child].name != name) return "name mismatch for " + name;
      }
    }
    if (s.parent == kNoIno) continue;  // the root, or detached
    if (!exists(s.parent)) return "parent link points at dead dir";
    if (s.name.empty())
      return "linked inode " + std::to_string(ino) + " has no name";
    const Inode& d = inode(s.parent);
    auto eit = d.entries.find(s.name);
    if (eit == d.entries.end() || eit->second != ino)
      return "entry/name disagreement for " + std::to_string(ino);
  }
  return {};
}

}  // namespace ep::os
