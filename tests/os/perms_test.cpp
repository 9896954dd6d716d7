// Permission-predicate tests, including the parameterized sweep over the
// full owner/group/other x read/write/exec matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "os/vfs.hpp"

namespace ep::os {
namespace {

Inode make_node(Uid uid, Gid gid, unsigned mode) {
  Inode n;
  n.uid = uid;
  n.gid = gid;
  n.mode = mode;
  return n;
}

TEST(Permits, OwnerClassSelectedFirst) {
  // Owner bits deny even if "other" bits would allow — UNIX classic.
  Inode n = make_node(100, 100, 0007);
  EXPECT_FALSE(Vfs::permits(n, 100, 999, Perm::read));
  EXPECT_TRUE(Vfs::permits(n, 200, 999, Perm::read));
}

TEST(Permits, GroupClassBeforeOther) {
  Inode n = make_node(100, 50, 0070);
  EXPECT_TRUE(Vfs::permits(n, 200, 50, Perm::read));
  EXPECT_FALSE(Vfs::permits(n, 200, 51, Perm::read));
}

TEST(PermitsWithRoot, RootBypassesReadWrite) {
  Inode n = make_node(100, 100, 0000);
  EXPECT_TRUE(Vfs::permits_with_root(n, kRootUid, kRootGid, Perm::read));
  EXPECT_TRUE(Vfs::permits_with_root(n, kRootUid, kRootGid, Perm::write));
}

TEST(PermitsWithRoot, RootExecNeedsSomeXBit) {
  Inode no_x = make_node(100, 100, 0644);
  Inode some_x = make_node(100, 100, 0100);
  EXPECT_FALSE(Vfs::permits_with_root(no_x, kRootUid, kRootGid, Perm::exec));
  EXPECT_TRUE(Vfs::permits_with_root(some_x, kRootUid, kRootGid, Perm::exec));
}

// ---- Parameterized sweep ----------------------------------------------------

// GTest names each case after the raw bytes of its PermCase (there is no
// PrintTo for it), so every byte must be defined: `name_tail` fills what
// would otherwise be padding. Left as padding, those bytes were stack
// leftovers, some holding part of a heap address that moves with ASLR, and
// the case names changed from one build to the next. The tails below are
// the bytes the names were first recorded with, kept so the names do not
// change.
struct PermCase {
  unsigned mode;
  int who;  // 0=owner, 1=group, 2=other
  Perm perm;
  bool expect;
  unsigned char name_tail[3];
};
static_assert(std::has_unique_object_representations_v<PermCase>,
              "PermCase must have no padding: its bytes are its test name");

class PermMatrix : public ::testing::TestWithParam<PermCase> {};

TEST_P(PermMatrix, MatchesUnixSemantics) {
  const PermCase& c = GetParam();
  Inode n = make_node(100, 50, c.mode);
  Uid uid = c.who == 0 ? 100 : 200;
  Gid gid = c.who == 1 ? 50 : 999;
  EXPECT_EQ(Vfs::permits(n, uid, gid, c.perm), c.expect)
      << "mode " << std::oct << c.mode << " who " << c.who;
}

std::vector<PermCase> perm_matrix() {
  std::vector<PermCase> cases;
  // For every single permission bit, exactly the right (who, perm) pair
  // passes and the other eight fail.
  struct Bit {
    unsigned mode;
    int who;
    Perm perm;
  };
  const Bit bits[] = {
      {0400, 0, Perm::read},  {0200, 0, Perm::write}, {0100, 0, Perm::exec},
      {0040, 1, Perm::read},  {0020, 1, Perm::write}, {0010, 1, Perm::exec},
      {0004, 2, Perm::read},  {0002, 2, Perm::write}, {0001, 2, Perm::exec},
  };
  for (const Bit& set : bits) {
    for (int who = 0; who < 3; ++who) {
      for (Perm p : {Perm::read, Perm::write, Perm::exec}) {
        bool expect = who == set.who && p == set.perm;
        cases.push_back({set.mode, who, p, expect, {0, 0, 0}});
      }
    }
  }
  struct Tail {
    std::size_t index;
    unsigned char bytes[3];
  };
  const Tail tails[] = {
      {1, {0x55, 0, 0}},        {3, {0x55, 0, 0}},
      {5, {0x65, 0x64, 0}},     {7, {0x55, 0, 0}},
      {9, {0x74, 0, 0}},        {11, {0x55, 0, 0}},
      {15, {0x55, 0, 0}},       {23, {0x55, 0, 0}},
      {25, {0x70, 0, 0}},       {27, {0x6C, 0x65, 0}},
      {29, {0x72, 0, 0}},       {35, {0x55, 0, 0}},
      {39, {0x55, 0, 0}},       {43, {0x55, 0, 0}},
      {45, {0x55, 0, 0}},       {47, {0x55, 0, 0}},
      {51, {0x55, 0, 0}},       {53, {0x55, 0, 0}},
      {54, {0x55, 0, 0}},       {59, {0x55, 0, 0}},
      {61, {0x55, 0, 0}},       {62, {0x55, 0, 0}},
      {64, {0x72, 0x79, 0}},    {65, {0x55, 0, 0}},
      {67, {0x33, 0x32, 0x2F}}, {68, {0x55, 0, 0}},
      {70, {0x55, 0, 0}},       {71, {0x55, 0, 0}},
      {73, {0x45, 0x53, 0x0A}}, {75, {0x7F, 0, 0}},
      {78, {0x65, 0x78, 0x70}}, {79, {0x75, 0x72, 0x65}},
  };
  for (const Tail& t : tails) {
    std::copy(std::begin(t.bytes), std::end(t.bytes),
              std::begin(cases.at(t.index).name_tail));
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBits, PermMatrix,
                         ::testing::ValuesIn(perm_matrix()));

// Monotonicity property: adding permission bits never revokes access.
class PermMonotonic : public ::testing::TestWithParam<unsigned> {};

TEST_P(PermMonotonic, AddingBitsNeverRevokes) {
  unsigned base = GetParam();
  for (unsigned extra_bit = 1; extra_bit <= 0400; extra_bit <<= 1) {
    unsigned wider = base | extra_bit;
    for (int who = 0; who < 3; ++who) {
      Uid uid = who == 0 ? 100 : 200;
      Gid gid = who == 1 ? 50 : 999;
      for (Perm p : {Perm::read, Perm::write, Perm::exec}) {
        Inode a = make_node(100, 50, base);
        Inode b = make_node(100, 50, wider);
        if (Vfs::permits(a, uid, gid, p)) {
          EXPECT_TRUE(Vfs::permits(b, uid, gid, p))
              << std::oct << base << " -> " << wider;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PermMonotonic,
                         ::testing::Values(0000u, 0400u, 0044u, 0640u, 0755u,
                                           0600u, 0222u, 0111u));

}  // namespace
}  // namespace ep::os
