#include "os/kernel.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "net/network.hpp"
#include "os/world.hpp"
#include "reg/registry.hpp"

namespace ep::os {
namespace {

const Site kS{"test.c", 1, "test-site"};

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    world::standard_unix(k);
    k.add_user(1000, "alice", 1000);
    k.add_user(666, "mallory", 666);
    alice = k.make_process(1000, 1000, "/home/alice");
    world::mkdirs(k, "/home/alice", 1000, 1000, 0755);
    root = k.make_process(kRootUid, kRootGid, "/");
  }
  Kernel k;
  Pid alice = -1;
  Pid root = -1;
};

TEST_F(KernelTest, OpenCreateWriteReadRoundTrip) {
  auto fd = k.open(kS, alice, "/home/alice/f.txt",
                   OpenFlag::wr | OpenFlag::creat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.write(kS, alice, fd.value(), "hello").ok());
  ASSERT_TRUE(k.close(alice, fd.value()).ok());

  auto rfd = k.open(kS, alice, "/home/alice/f.txt", OpenFlag::rd);
  ASSERT_TRUE(rfd.ok());
  auto data = k.read(kS, alice, rfd.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello");
}

TEST_F(KernelTest, OpenHonorsUmask) {
  k.proc(alice).umask = 027;
  auto fd = k.open(kS, alice, "/home/alice/masked",
                   OpenFlag::wr | OpenFlag::creat, 0666);
  ASSERT_TRUE(fd.ok());
  auto st = k.fstat(alice, fd.value());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().mode, 0640u);
}

TEST_F(KernelTest, OpenMissingWithoutCreatIsNoent) {
  auto fd = k.open(kS, alice, "/home/alice/absent", OpenFlag::rd);
  EXPECT_EQ(fd.error(), Err::noent);
}

TEST_F(KernelTest, OpenExclRefusesExisting) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/f",
                   OpenFlag::wr | OpenFlag::creat | OpenFlag::excl);
  EXPECT_EQ(fd.error(), Err::exist);
}

TEST_F(KernelTest, OpenExclRefusesSymlinkEvenDangling) {
  world::put_symlink(k, "/home/alice/link", "/home/alice/nowhere", 1000, 1000);
  auto fd = k.open(kS, alice, "/home/alice/link",
                   OpenFlag::wr | OpenFlag::creat | OpenFlag::excl);
  EXPECT_EQ(fd.error(), Err::exist);
}

TEST_F(KernelTest, OpenNofollowRefusesSymlink) {
  world::put_file(k, "/home/alice/real", "x", 1000, 1000, 0644);
  world::put_symlink(k, "/home/alice/link", "/home/alice/real", 1000, 1000);
  auto fd =
      k.open(kS, alice, "/home/alice/link", OpenFlag::rd | OpenFlag::nofollow);
  EXPECT_EQ(fd.error(), Err::loop);
}

TEST_F(KernelTest, OpenCreatThroughDanglingSymlinkCreatesTarget) {
  // The classic spool attack shape: creating "through" a planted link.
  world::put_symlink(k, "/tmp/t", "/tmp/target-file", 666, 666);
  auto fd = k.open(kS, root, "/tmp/t", OpenFlag::wr | OpenFlag::creat, 0600);
  ASSERT_TRUE(fd.ok());
  auto st = k.stat(kS, root, "/tmp/target-file");
  ASSERT_TRUE(st.ok());
}

TEST_F(KernelTest, OpenTruncClearsContent) {
  world::put_file(k, "/home/alice/f", "old-content", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/f",
                   OpenFlag::wr | OpenFlag::trunc);
  ASSERT_TRUE(fd.ok());
  auto st = k.fstat(alice, fd.value());
  EXPECT_EQ(st.value().size, 0u);
}

TEST_F(KernelTest, WriteDeniedWithoutWritePermission) {
  world::put_file(k, "/etc/conf", "x", kRootUid, kRootGid, 0644);
  auto fd = k.open(kS, alice, "/etc/conf", OpenFlag::wr);
  EXPECT_EQ(fd.error(), Err::acces);
}

TEST_F(KernelTest, RootBypassesFilePermissions) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  auto fd = k.open(kS, root, "/etc/secret", OpenFlag::rd | OpenFlag::wr);
  EXPECT_TRUE(fd.ok());
}

TEST_F(KernelTest, ReadLineSplitsOnNewlines) {
  world::put_file(k, "/home/alice/cfg", "one\ntwo\nthree", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/cfg", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(), "one");
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(), "two");
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(), "three");
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).error(), Err::io);  // EOF
}

TEST_F(KernelTest, AppendSeeksToEnd) {
  world::put_file(k, "/home/alice/log", "a", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/log",
                   OpenFlag::wr | OpenFlag::append);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.write(kS, alice, fd.value(), "b").ok());
  EXPECT_EQ(k.peek("/home/alice/log").value(), "ab");
}

TEST_F(KernelTest, BadFdErrors) {
  EXPECT_EQ(k.read(kS, alice, 99).error(), Err::badf);
  EXPECT_EQ(k.write(kS, alice, 99, "x").error(), Err::badf);
  EXPECT_EQ(k.close(alice, 99).error(), Err::badf);
  EXPECT_EQ(k.fstat(alice, 99).error(), Err::badf);
}

TEST_F(KernelTest, ReadOnWriteOnlyFdIsBadf) {
  auto fd = k.open(kS, alice, "/home/alice/w",
                   OpenFlag::wr | OpenFlag::creat);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k.read(kS, alice, fd.value()).error(), Err::badf);
}

TEST_F(KernelTest, StatFollowsLstatDoesNot) {
  world::put_file(k, "/etc/real", "data", kRootUid, kRootGid, 0644);
  world::put_symlink(k, "/etc/alias", "/etc/real");
  auto st = k.stat(kS, alice, "/etc/alias");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().type, FileType::regular);
  auto lst = k.lstat(kS, alice, "/etc/alias");
  ASSERT_TRUE(lst.ok());
  EXPECT_EQ(lst.value().type, FileType::symlink);
}

TEST_F(KernelTest, AccessChecksRealUid) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  // Process with alice's real uid but root effective uid (set-uid model).
  Pid suid = k.make_process(1000, 1000, "/");
  k.proc(suid).euid = kRootUid;
  // euid root could read it, but access() answers for the real uid.
  EXPECT_EQ(k.access(kS, suid, "/etc/secret", Perm::read).error(),
            Err::acces);
  EXPECT_TRUE(k.open(kS, suid, "/etc/secret", OpenFlag::rd).ok());
}

TEST_F(KernelTest, UnlinkRequiresParentWrite) {
  world::put_file(k, "/etc/conf", "x", kRootUid, kRootGid, 0666);
  // alice can write the file but not the directory -> unlink denied.
  EXPECT_EQ(k.unlink(kS, alice, "/etc/conf").error(), Err::acces);
  EXPECT_TRUE(k.unlink(kS, root, "/etc/conf").ok());
}

TEST_F(KernelTest, MkdirRmdir) {
  ASSERT_TRUE(k.mkdir(kS, alice, "/home/alice/sub", 0755).ok());
  auto st = k.stat(kS, alice, "/home/alice/sub");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().type, FileType::directory);
  EXPECT_TRUE(k.rmdir(kS, alice, "/home/alice/sub").ok());
  EXPECT_EQ(k.stat(kS, alice, "/home/alice/sub").error(), Err::noent);
}

TEST_F(KernelTest, RenameWithinDirectory) {
  world::put_file(k, "/home/alice/a", "1", 1000, 1000, 0644);
  ASSERT_TRUE(k.rename(kS, alice, "/home/alice/a", "/home/alice/b").ok());
  EXPECT_EQ(k.peek("/home/alice/b").value(), "1");
  EXPECT_EQ(k.stat(kS, alice, "/home/alice/a").error(), Err::noent);
}

TEST_F(KernelTest, SymlinkAndReadlink) {
  ASSERT_TRUE(k.symlink(kS, alice, "/etc/passwd", "/home/alice/pw").ok());
  auto t = k.readlink(kS, alice, "/home/alice/pw");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value(), "/etc/passwd");
  EXPECT_EQ(k.readlink(kS, alice, "/etc/passwd").error(), Err::inval);
}

TEST_F(KernelTest, ChmodOnlyOwnerOrRoot) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  ASSERT_TRUE(k.chmod(kS, alice, "/home/alice/f", 0600).ok());
  world::put_file(k, "/etc/rootfile", "x", kRootUid, kRootGid, 0644);
  EXPECT_EQ(k.chmod(kS, alice, "/etc/rootfile", 0666).error(), Err::perm);
  EXPECT_TRUE(k.chmod(kS, root, "/etc/rootfile", 0666).ok());
}

TEST_F(KernelTest, ChownRootOnly) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  EXPECT_EQ(k.chown(kS, alice, "/home/alice/f", 666, 666).error(), Err::perm);
  ASSERT_TRUE(k.chown(kS, root, "/home/alice/f", 666, 666).ok());
  auto st = k.stat(kS, root, "/home/alice/f");
  EXPECT_EQ(st.value().uid, 666);
}

TEST_F(KernelTest, ChdirUpdatesCwdCanonically) {
  world::mkdirs(k, "/home/alice/deep/dir");
  ASSERT_TRUE(k.chdir(kS, alice, "deep/./dir/..").ok());
  EXPECT_EQ(k.getcwd(alice), "/home/alice/deep");
}

TEST_F(KernelTest, ChdirToFileIsNotdir) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  EXPECT_EQ(k.chdir(kS, alice, "/home/alice/f").error(), Err::notdir);
}

TEST_F(KernelTest, ReaddirListsSorted) {
  world::put_file(k, "/home/alice/b", "", 1000, 1000, 0644);
  world::put_file(k, "/home/alice/a", "", 1000, 1000, 0644);
  auto names = k.readdir(kS, alice, "/home/alice");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names.value().size(), 2u);
  EXPECT_EQ(names.value()[0], "a");
  EXPECT_EQ(names.value()[1], "b");
}

TEST_F(KernelTest, GetenvPresentAndAbsent) {
  k.proc(alice).env["PATH"] = "/bin";
  EXPECT_EQ(k.getenv(kS, alice, "PATH").value(), "/bin");
  EXPECT_EQ(k.getenv(kS, alice, "NOPE").error(), Err::noent);
}

TEST_F(KernelTest, ArgAccess) {
  k.proc(alice).args = {"prog", "one"};
  EXPECT_EQ(k.arg(kS, alice, 1), "one");
  EXPECT_EQ(k.arg(kS, alice, 5), "");
  EXPECT_EQ(k.argc(alice), 2u);
}

TEST_F(KernelTest, OutputAccumulates) {
  k.output(kS, alice, "line1");
  k.output(kS, alice, "line2");
  EXPECT_EQ(k.proc(alice).stdout_text, "line1\nline2\n");
}

TEST_F(KernelTest, UidCanReflectsPermissions) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  EXPECT_FALSE(k.uid_can(1000, 1000, "/etc/secret", Perm::read));
  EXPECT_TRUE(k.uid_can(kRootUid, kRootGid, "/etc/secret", Perm::read));
  EXPECT_FALSE(k.uid_can(1000, 1000, "/absent", Perm::read));
}

TEST_F(KernelTest, UnknownPidThrows) {
  EXPECT_THROW((void)k.proc(4242), std::logic_error);
}

TEST_F(KernelTest, StickyDirRestrictsDeletion) {
  // A sticky shared directory: alice's file cannot be unlinked or renamed
  // by another non-owner user, even though the directory is writable.
  ASSERT_TRUE(k.chmod(kS, root, "/tmp", 0777 | kStickyBit).ok());
  world::put_file(k, "/tmp/alice-file", "hers", 1000, 1000, 0644);
  Pid mallory = k.make_process(666, 666, "/tmp");
  EXPECT_EQ(k.unlink(kS, mallory, "/tmp/alice-file").error(), Err::perm);
  EXPECT_EQ(k.rename(kS, mallory, "/tmp/alice-file", "/tmp/stolen").error(),
            Err::perm);
  // The owner, the directory owner (root), and root itself still may.
  EXPECT_TRUE(k.unlink(kS, alice, "/tmp/alice-file").ok());
}

TEST_F(KernelTest, StickyDirStillAllowsNewEntries) {
  ASSERT_TRUE(k.chmod(kS, root, "/tmp", 0777 | kStickyBit).ok());
  Pid mallory = k.make_process(666, 666, "/tmp");
  auto fd = k.open(kS, mallory, "/tmp/mine",
                   OpenFlag::wr | OpenFlag::creat, 0644);
  EXPECT_TRUE(fd.ok());
  // And their own entries can be removed.
  EXPECT_TRUE(k.unlink(kS, mallory, "/tmp/mine").ok());
}

TEST_F(KernelTest, StickyRenameRefusesOverwritingForeignTarget) {
  ASSERT_TRUE(k.chmod(kS, root, "/tmp", 0777 | kStickyBit).ok());
  world::put_file(k, "/tmp/victim", "hers", 1000, 1000, 0666);
  Pid mallory = k.make_process(666, 666, "/tmp");
  world::put_file(k, "/tmp/mine", "x", 666, 666, 0644);
  EXPECT_EQ(k.rename(kS, mallory, "/tmp/mine", "/tmp/victim").error(),
            Err::perm);
}

TEST_F(KernelTest, NonStickyWritableDirAllowsForeignDeletion) {
  // The contrast case — and the reason the classic /tmp attacks worked.
  world::put_file(k, "/tmp/alice-file", "hers", 1000, 1000, 0644);
  Pid mallory = k.make_process(666, 666, "/tmp");
  EXPECT_TRUE(k.unlink(kS, mallory, "/tmp/alice-file").ok());
}

TEST_F(KernelTest, AfterHookCanRewriteInput) {
  struct Rewrite : Interposer {
    void after(Kernel&, SyscallCtx& ctx, Err) override {
      if (ctx.has_input && ctx.input) *ctx.input = "REWRITTEN";
    }
  };
  world::put_file(k, "/home/alice/f", "original", 1000, 1000, 0644);
  k.add_interposer(std::make_shared<Rewrite>());
  auto fd = k.open(kS, alice, "/home/alice/f", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k.read(kS, alice, fd.value()).value(), "REWRITTEN");
  // The file itself is untouched: only the delivered input changed.
  EXPECT_EQ(k.peek("/home/alice/f").value(), "original");
}

TEST_F(KernelTest, HookShrinkingContentMidReadIsEofNotCrash) {
  // A content perturbation can replace the file with a shorter payload
  // between the before-hooks and the actual read; an advanced descriptor
  // offset must degrade to EOF, never out-of-range.
  struct Shrink : Interposer {
    void before(Kernel& kk, SyscallCtx& ctx) override {
      if (ctx.call != "read" || ctx.object == kNoIno) return;
      kk.vfs().mutate(ctx.object).content = "x";
    }
  };
  world::put_file(k, "/home/alice/log", "line one is quite long\nline two\n",
                  1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/log", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  // Advance the offset past what the shrunk file will hold.
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(),
            "line one is quite long");
  k.add_interposer(std::make_shared<Shrink>());
  // The EOF pre-check passes against the original content, the hook then
  // shrinks it below the offset; the read must answer EOF.
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).error(), Err::io);
}

TEST_F(KernelTest, DescribeObjectRecordsRuidAccess) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  struct Capture : Interposer {
    bool readable = true, writable = true;
    void after(Kernel&, SyscallCtx& ctx, Err) override {
      if (ctx.call == "stat") {
        readable = ctx.object_ruid_readable;
        writable = ctx.object_ruid_writable;
      }
    }
  };
  auto cap = std::make_shared<Capture>();
  k.add_interposer(cap);
  Pid suid = k.make_process(1000, 1000, "/");
  k.proc(suid).euid = kRootUid;
  ASSERT_TRUE(k.stat(kS, suid, "/etc/secret").ok());
  EXPECT_FALSE(cap->readable);
  EXPECT_FALSE(cap->writable);
}


// --- entity trustability: the parent-link walk ------------------------------
//
// An inode is tainted iff it or any inode on its parent-link chain is
// untrusted. The walk needs no path: it reaches detached subtrees,
// directories nobody may search, and chains longer than kMaxPathLen.

/// Records ctx.object_untrusted of the last syscall that named an object.
struct TrustProbe : Interposer {
  bool untrusted = false;
  int seen = 0;
  void after(Kernel&, SyscallCtx& ctx, Err) override {
    if (ctx.object == kNoIno) return;
    untrusted = ctx.object_untrusted;
    ++seen;
  }
};

class TrustWalkTest : public KernelTest {
 protected:
  TrustWalkTest() { k.add_interposer(probe); }
  void distrust(const std::string& p) {
    k.vfs().mutate(k.vfs().resolve(p, "/", kRootUid, kRootGid).value())
        .trusted = false;
  }
  std::shared_ptr<TrustProbe> probe = std::make_shared<TrustProbe>();
};

TEST_F(TrustWalkTest, TrustedChainIsClean) {
  world::put_file(k, "/a/b/c/f", "x");
  ASSERT_TRUE(k.stat(kS, root, "/a/b/c/f").ok());
  EXPECT_EQ(probe->seen, 1);
  EXPECT_FALSE(probe->untrusted);
}

TEST_F(TrustWalkTest, UntrustedAtEveryDepthTaintsTheLeaf) {
  const std::vector<std::string> chain = {"/", "/a", "/a/b", "/a/b/c",
                                          "/a/b/c/f"};
  for (const auto& marked : chain) {
    Kernel fresh;
    world::put_file(fresh, "/a/b/c/f", "x");
    world::put_file(fresh, "/a/side", "y");
    fresh.vfs()
        .mutate(fresh.vfs().resolve(marked, "/", kRootUid, kRootGid).value())
        .trusted = false;
    auto probe = std::make_shared<TrustProbe>();
    fresh.add_interposer(probe);
    Pid r = fresh.make_process(kRootUid, kRootGid, "/");
    for (const auto& p : chain) {
      ASSERT_TRUE(fresh.stat(kS, r, p).ok());
      // Tainted exactly when the marked inode is p or one of its ancestors.
      bool below = marked == "/" || p == marked ||
                   path::is_under(p, marked);
      EXPECT_EQ(probe->untrusted, below) << "marked " << marked << ", " << p;
    }
    ASSERT_TRUE(fresh.stat(kS, r, "/a/side").ok());
    EXPECT_EQ(probe->untrusted, marked == "/" || marked == "/a") << marked;
  }
}

TEST_F(TrustWalkTest, UnsearchableAncestorStillTaints) {
  // /a has no x bit at all, so not even root may resolve a path through
  // it; the taint reaches the file through the parent links regardless.
  world::put_file(k, "/a/b/f", "x");
  distrust("/a");
  auto fd = k.open(kS, root, "/a/b/f", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  k.vfs().mutate(k.vfs().resolve("/a", "/", kRootUid, kRootGid).value())
      .mode = 0600;
  EXPECT_EQ(k.stat(kS, root, "/a/b/f").error(), Err::acces);
  ASSERT_TRUE(k.read(kS, root, fd.value()).ok());
  EXPECT_TRUE(probe->untrusted);
}

TEST_F(TrustWalkTest, DetachedSubtreeKeepsItsTaint) {
  world::put_file(k, "/d/sub/f", "x");
  distrust("/d/sub");
  auto fd = k.open(kS, root, "/d/sub/f", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  k.vfs().detach(k.vfs().root(), "d");
  ASSERT_TRUE(k.read(kS, root, fd.value()).ok());
  EXPECT_TRUE(probe->untrusted);
}

TEST_F(TrustWalkTest, DetachedCleanSubtreeIsClean) {
  world::put_file(k, "/d/sub/f", "x");
  distrust("/");  // the root no longer sits above the detached subtree
  auto fd = k.open(kS, root, "/d/sub/f", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  k.vfs().detach(k.vfs().root(), "d");
  ASSERT_TRUE(k.read(kS, root, fd.value()).ok());
  EXPECT_FALSE(probe->untrusted);
}

TEST_F(TrustWalkTest, ChainLongerThanMaxPathLenTaints) {
  // 40 levels of 200-byte names: the canonical path is ~8 KB, twice
  // kMaxPathLen, so no path-based walk could reach the top.
  Vfs& vfs = k.vfs();
  Ino top = vfs.create_dir(vfs.root(), "top", kRootUid, kRootGid, 0755)
                .value();
  vfs.mutate(top).trusted = false;
  std::string deep = "/top";
  Ino cur = top;
  for (int i = 0; i < 40; ++i) {
    std::string name(200, static_cast<char>('a' + i % 26));
    cur = vfs.create_dir(cur, name, kRootUid, kRootGid, 0755).value();
    deep += "/" + name;
  }
  ASSERT_TRUE(vfs.create_file(cur, "f", kRootUid, kRootGid, 0644).ok());
  ASSERT_GT(deep.size(), kMaxPathLen);
  EXPECT_EQ(vfs.canonical_path(cur), deep);
  // A relative name from a cwd inside the chain keeps the path short.
  k.proc(root).cwd = deep;
  ASSERT_TRUE(k.stat(kS, root, "f").ok());
  EXPECT_TRUE(probe->untrusted);
  vfs.mutate(top).trusted = true;
  ASSERT_TRUE(k.stat(kS, root, "f").ok());
  EXPECT_FALSE(probe->untrusted);
}

// --- dot leaves: "." and ".." never name a new or removable entry ----------

TEST_F(KernelTest, OpenCreatOnDotLeafIsIsdir) {
  for (const char* p : {"/home/alice/.", "/home/alice/..", "."}) {
    EXPECT_EQ(k.open(kS, alice, p, OpenFlag::wr | OpenFlag::creat).error(),
              Err::isdir)
        << p;
    EXPECT_EQ(k.open(kS, alice, p, OpenFlag::rd | OpenFlag::creat).error(),
              Err::isdir)
        << p;
  }
  EXPECT_TRUE(k.vfs().check_invariants().empty());
  EXPECT_EQ(k.readdir(kS, alice, "/home/alice").value().size(), 0u);
}

TEST_F(KernelTest, OpenDotLeafOpensTheDirectory) {
  // As open(2): a final "." or ".." opens the directory it names, and the
  // hooks see that directory's canonical path, not the path as spelled.
  struct Canonical : Interposer {
    std::string seen;
    void after(Kernel&, SyscallCtx& ctx, Err) override {
      if (ctx.call == "open") seen = ctx.canonical;
    }
  };
  auto hook = std::make_shared<Canonical>();
  k.add_interposer(hook);
  auto ino_of = [&](const char* p) {
    return k.vfs().resolve(p, "/", kRootUid, kRootGid).value();
  };
  struct Case {
    const char* path;
    const char* dir;
  };
  for (Case c : {Case{"/home/alice/..", "/home"}, Case{"..", "/home"},
                 Case{"/home/alice/.", "/home/alice"}, Case{".", "/home/alice"},
                 Case{"/..", "/"}}) {
    auto fd = k.open(kS, alice, c.path, OpenFlag::rd);
    ASSERT_TRUE(fd.ok()) << c.path;
    EXPECT_EQ(k.fstat(alice, fd.value()).value().ino, ino_of(c.dir)) << c.path;
    EXPECT_EQ(hook->seen, c.dir) << c.path;
  }
  // A directory is never opened for writing.
  EXPECT_EQ(k.open(kS, alice, "/home/alice/..", OpenFlag::wr).error(),
            Err::isdir);
  EXPECT_EQ(k.open(kS, alice, "/home/alice/.", OpenFlag::rd | OpenFlag::wr)
                .error(),
            Err::isdir);
}

TEST_F(KernelTest, MkdirAndSymlinkOnDotLeafAreExist) {
  for (const char* p : {"/home/alice/.", "/home/alice/..", ".."}) {
    EXPECT_EQ(k.mkdir(kS, alice, p).error(), Err::exist) << p;
    EXPECT_EQ(k.symlink(kS, alice, "/etc/passwd", p).error(), Err::exist)
        << p;
  }
  EXPECT_TRUE(k.vfs().check_invariants().empty());
  EXPECT_EQ(k.readdir(kS, alice, "/home/alice").value().size(), 0u);
}

TEST_F(KernelTest, UnlinkOnDotLeafIsIsdir) {
  EXPECT_EQ(k.unlink(kS, alice, "/home/alice/.").error(), Err::isdir);
  EXPECT_EQ(k.unlink(kS, alice, "/home/alice/..").error(), Err::isdir);
}

TEST_F(KernelTest, RmdirDotIsInvalAndDotDotIsNotempty) {
  world::mkdirs(k, "/home/alice/d", 1000, 1000, 0755);
  EXPECT_EQ(k.rmdir(kS, alice, "/home/alice/d/.").error(), Err::inval);
  EXPECT_EQ(k.rmdir(kS, alice, "/home/alice/d/..").error(), Err::notempty);
  EXPECT_TRUE(k.stat(kS, alice, "/home/alice/d").ok());
}

TEST_F(KernelTest, RenameToOrFromDotLeafIsInval) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  world::mkdirs(k, "/home/alice/d", 1000, 1000, 0755);
  EXPECT_EQ(k.rename(kS, alice, "/home/alice/f", "/home/alice/d/.").error(),
            Err::inval);
  EXPECT_EQ(k.rename(kS, alice, "/home/alice/f", "/home/alice/d/..").error(),
            Err::inval);
  EXPECT_EQ(k.rename(kS, alice, "/home/alice/d/.", "/home/alice/g").error(),
            Err::inval);
  EXPECT_EQ(k.rename(kS, alice, "/home/alice/d/..", "/home/alice/g").error(),
            Err::inval);
  EXPECT_EQ(k.peek("/home/alice/f").value(), "x");
  EXPECT_TRUE(k.vfs().check_invariants().empty());
}

TEST_F(KernelTest, RenameDirectoryBelowItselfIsInval) {
  // Would cut /home/alice/d off the root and close a parent-link cycle.
  world::mkdirs(k, "/home/alice/d/e", 1000, 1000, 0755);
  EXPECT_EQ(k.rename(kS, alice, "/home/alice/d", "/home/alice/d/e/d").error(),
            Err::inval);
  EXPECT_EQ(k.rename(kS, alice, "/home/alice/d", "/home/alice/d/x").error(),
            Err::inval);
  EXPECT_TRUE(k.rename(kS, alice, "/home/alice/d/e", "/home/alice/e").ok());
  EXPECT_TRUE(k.vfs().check_invariants().empty());
}

// --- the interaction envelope: every hooked call runs each hook once -------

/// Every hook event in order: the phase, the call, the Err after-hooks saw.
struct EventLog : Interposer {
  struct Event {
    bool before = false;
    std::string call;
    Err result = Err::ok;
  };
  std::vector<Event> events;
  void before(Kernel&, SyscallCtx& ctx) override {
    events.push_back({true, ctx.call, Err::ok});
  }
  void after(Kernel&, SyscallCtx& ctx, Err result) override {
    events.push_back({false, ctx.call, result});
  }
};

/// Something behind every hooked entry point: files open for reading,
/// writing and exec, an accepted and a connected socket, a host, a
/// registry key. Built before any hook is attached.
struct EnvelopeWorld {
  EnvelopeWorld() {
    world::standard_unix(k);
    k.add_user(1000, "alice", 1000);
    world::mkdirs(k, "/home/alice", 1000, 1000, 0755);
    alice = k.make_process(1000, 1000, "/home/alice",
                           {{"HOME", "/home/alice"}});
    k.proc(alice).args = {"prog", "x"};
    world::put_file(k, "/home/alice/f", "one\ntwo\n", 1000, 1000, 0644);
    world::put_file(k, "/home/alice/empty", "", 1000, 1000, 0644);
    world::mkdirs(k, "/home/alice/d", 1000, 1000, 0755);
    world::put_symlink(k, "/home/alice/l", "/home/alice/f", 1000, 1000);
    k.register_image("noop", [](Kernel&, Pid) { return 0; });
    world::put_program(k, "/bin/noop", "noop");
    rfd = k.open(kS, alice, "/home/alice/f", OpenFlag::rd).value();
    wfd = k.open(kS, alice, "/home/alice/f", OpenFlag::wr).value();
    efd = k.open(kS, alice, "/home/alice/empty", OpenFlag::rd).value();
    xfd = k.open(kS, alice, "/bin/noop", OpenFlag::rd).value();

    net::PeerScript script;
    script.inbound = {{"client", "HELLO", "hi", true}};
    net.set_client_script(script);
    net::ServiceDef svc;
    svc.name = "authsvc";
    svc.handler = [](const net::Message&) {
      return net::Message{"", "AUTH_OK", "", true};
    };
    net.define_service(svc);
    net.add_host("mail.example", "10.0.0.1");
    in = net.accept(k, kS, alice).value();
    out = net.connect(k, kS, alice, "authsvc").value();
    reg::Key key;
    key.path = "HKLM/Open";
    key.value = "v";
    key.acl.everyone_write = true;
    reg.define_key(key);
  }
  Kernel k;
  net::Network net;
  reg::Registry reg;
  Pid alice = -1;
  Fd rfd = -1, wfd = -1, efd = -1, xfd = -1;
  net::Sock in = -1, out = -1;
};

struct EnvelopeCase {
  const char* call;  // the ctx.call the hooks must see
  Err expected;      // what the program gets back
  std::function<Err(EnvelopeWorld&)> run;
};

const std::vector<EnvelopeCase>& hooked_calls() {
  using W = EnvelopeWorld;
  static const std::vector<EnvelopeCase> cases = {
      {"open", Err::noent,
       [](W& w) {
         return w.k.open(kS, w.alice, "/home/alice/absent", OpenFlag::rd)
             .error();
       }},
      {"read", Err::ok,
       [](W& w) { return w.k.read(kS, w.alice, w.rfd).error(); }},
      {"read", Err::ok,
       [](W& w) { return w.k.read_line(kS, w.alice, w.rfd).error(); }},
      {"write", Err::ok,
       [](W& w) { return w.k.write(kS, w.alice, w.wfd, "x").error(); }},
      {"stat", Err::ok,
       [](W& w) { return w.k.stat(kS, w.alice, "/home/alice/f").error(); }},
      {"lstat", Err::ok,
       [](W& w) { return w.k.lstat(kS, w.alice, "/home/alice/l").error(); }},
      {"access", Err::acces,
       [](W& w) {
         return w.k.access(kS, w.alice, "/etc/shadow", Perm::read).error();
       }},
      {"mkdir", Err::exist,
       [](W& w) { return w.k.mkdir(kS, w.alice, "/home/alice/d").error(); }},
      {"rmdir", Err::ok,
       [](W& w) { return w.k.rmdir(kS, w.alice, "/home/alice/d").error(); }},
      {"unlink", Err::noent,
       [](W& w) { return w.k.unlink(kS, w.alice, "/home/alice/no").error(); }},
      {"rename", Err::ok,
       [](W& w) {
         return w.k.rename(kS, w.alice, "/home/alice/f", "/home/alice/g")
             .error();
       }},
      {"symlink", Err::ok,
       [](W& w) {
         return w.k.symlink(kS, w.alice, "/etc/passwd", "/home/alice/s")
             .error();
       }},
      {"readlink", Err::inval,
       [](W& w) {
         return w.k.readlink(kS, w.alice, "/home/alice/f").error();
       }},
      {"readdir", Err::ok,
       [](W& w) { return w.k.readdir(kS, w.alice, "/home/alice").error(); }},
      {"chmod", Err::ok,
       [](W& w) {
         return w.k.chmod(kS, w.alice, "/home/alice/f", 0600).error();
       }},
      {"chown", Err::perm,
       [](W& w) {
         return w.k.chown(kS, w.alice, "/home/alice/f", 0, 0).error();
       }},
      {"chdir", Err::ok,
       [](W& w) { return w.k.chdir(kS, w.alice, "/home/alice/d").error(); }},
      {"getenv", Err::ok,
       [](W& w) { return w.k.getenv(kS, w.alice, "HOME").error(); }},
      {"exec", Err::ok,
       [](W& w) {
         return w.k.exec(kS, w.alice, "/bin/noop", {"noop"}).error();
       }},
      {"exec", Err::ok,
       [](W& w) { return w.k.fexec(kS, w.alice, w.xfd, {"noop"}).error(); }},
      {"accept", Err::ok,
       [](W& w) { return w.net.accept(w.k, kS, w.alice).error(); }},
      {"recv", Err::ok,
       [](W& w) { return w.net.recv(w.k, kS, w.alice, w.in).error(); }},
      {"send", Err::ok,
       [](W& w) {
         return w.net.send(w.k, kS, w.alice, w.out, {"", "AUTH", "pw", true})
             .error();
       }},
      {"connect", Err::conn,
       [](W& w) { return w.net.connect(w.k, kS, w.alice, "nosuch").error(); }},
      {"query", Err::ok,
       [](W& w) {
         return w.net.query(w.k, kS, w.alice, w.out, {"", "AUTH", "pw", true})
             .error();
       }},
      {"dns", Err::noent,
       [](W& w) {
         return w.net.resolve_host(w.k, kS, w.alice, "nowhere.example")
             .error();
       }},
      {"regread", Err::noent,
       [](W& w) {
         return w.reg.read_value(w.k, kS, w.alice, "HKLM/Missing").error();
       }},
      {"regwrite", Err::ok,
       [](W& w) {
         return w.reg.write_value(w.k, kS, w.alice, "HKLM/Open", "v2")
             .error();
       }},
      {"arg", Err::ok,
       [](W& w) {
         EXPECT_EQ(w.k.arg(kS, w.alice, 1), "x");
         return Err::ok;
       }},
      {"output", Err::ok,
       [](W& w) {
         w.k.output(kS, w.alice, "hello");
         return Err::ok;
       }},
      {"app_fault", Err::ok,
       [](W& w) {
         w.k.app_fault(kS, w.alice, AppFault::assertion, "detail");
         return Err::ok;
       }},
      {"privileged_action", Err::ok,
       [](W& w) {
         w.k.privileged_action(kS, w.alice, "grant", true);
         return Err::ok;
       }},
      {"app_fault", Err::ok,
       [](W& w) {
         w.k.report_redzone_corruption(kS, w.alice, "/home/alice/f", "!!");
         return Err::ok;
       }},
  };
  return cases;
}

TEST(InteractionEnvelope, EveryHookedCallRunsEachHookOnce) {
  for (std::size_t i = 0; i < hooked_calls().size(); ++i) {
    const EnvelopeCase& c = hooked_calls()[i];
    SCOPED_TRACE(std::to_string(i) + ": " + c.call);
    EnvelopeWorld w;
    auto log = std::make_shared<EventLog>();
    w.k.add_interposer(log);
    Err got = c.run(w);
    EXPECT_EQ(got, c.expected);
    ASSERT_EQ(log->events.size(), 2u);
    EXPECT_TRUE(log->events[0].before);
    EXPECT_EQ(log->events[0].call, c.call);
    EXPECT_FALSE(log->events[1].before);
    EXPECT_EQ(log->events[1].call, c.call);
    EXPECT_EQ(log->events[1].result, got);
  }
}

TEST(InteractionEnvelope, PreHookRejectionsProduceNoHookEvent) {
  using W = EnvelopeWorld;
  const Fd bad = 99;
  const net::Message m{"", "AUTH", "pw", true};
  const std::vector<EnvelopeCase> cases = {
      {"read", Err::badf,
       [&](W& w) { return w.k.read(kS, w.alice, bad).error(); }},
      {"read", Err::badf,
       [](W& w) { return w.k.read(kS, w.alice, w.wfd).error(); }},
      {"read", Err::badf,
       [&](W& w) { return w.k.read_line(kS, w.alice, bad).error(); }},
      {"read", Err::io,  // EOF, checked before the hooks
       [](W& w) { return w.k.read_line(kS, w.alice, w.efd).error(); }},
      {"write", Err::badf,
       [&](W& w) { return w.k.write(kS, w.alice, bad, "x").error(); }},
      {"write", Err::badf,
       [](W& w) { return w.k.write(kS, w.alice, w.rfd, "x").error(); }},
      {"exec", Err::badf,
       [&](W& w) { return w.k.fexec(kS, w.alice, bad, {"noop"}).error(); }},
      {"recv", Err::badf,
       [&](W& w) { return w.net.recv(w.k, kS, w.alice, bad).error(); }},
      {"recv", Err::badf,  // an outbound socket has no inbound script
       [](W& w) { return w.net.recv(w.k, kS, w.alice, w.out).error(); }},
      {"send", Err::badf,
       [&](W& w) { return w.net.send(w.k, kS, w.alice, bad, m).error(); }},
      {"query", Err::badf,
       [&](W& w) { return w.net.query(w.k, kS, w.alice, bad, m).error(); }},
      {"query", Err::badf,  // the inbound peer is no service
       [&](W& w) { return w.net.query(w.k, kS, w.alice, w.in, m).error(); }},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(std::to_string(i) + ": " + cases[i].call);
    EnvelopeWorld w;
    auto log = std::make_shared<EventLog>();
    w.k.add_interposer(log);
    EXPECT_EQ(cases[i].run(w), cases[i].expected);
    EXPECT_TRUE(log->events.empty());
  }
}

TEST(VfsDotNames, CreateAndRenameRefuseDotNames) {
  Vfs vfs;
  Ino d = vfs.create_dir(vfs.root(), "d", kRootUid, kRootGid, 0755).value();
  for (const char* n : {".", ".."}) {
    EXPECT_EQ(vfs.create_file(d, n, kRootUid, kRootGid, 0644).error(),
              Err::exist);
    EXPECT_EQ(vfs.create_dir(d, n, kRootUid, kRootGid, 0755).error(),
              Err::exist);
    EXPECT_EQ(vfs.create_symlink(d, n, kRootUid, kRootGid, "/").error(),
              Err::exist);
  }
  ASSERT_TRUE(vfs.create_file(d, "f", kRootUid, kRootGid, 0644).ok());
  EXPECT_EQ(vfs.rename_entry(d, "f", d, "..").error(), Err::inval);
  EXPECT_EQ(vfs.list_all_paths(), (std::vector<std::string>{"/d", "/d/f"}));
  EXPECT_TRUE(vfs.check_invariants().empty());
}

}  // namespace
}  // namespace ep::os
