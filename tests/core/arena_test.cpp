// The shared-memory data plane (core/arena.hpp, core/transport.hpp's
// ShmLocalTransport): arena create/open round trips, header validation
// against corrupt, foreign or older-version files, and the transport's
// arena holding exactly the plan, whatever the lease partition.
#include "core/arena.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/transport.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

InjectionPlan toy_plan() {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = false;
  return Planner(s).plan(opts);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "epa_arena_test." + name + "." +
         std::to_string(static_cast<long long>(::getpid()));
}

template <typename Fn>
std::string arena_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ArenaError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ArenaError";
  return {};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::string read_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Arena, CreateOpenRoundTrip) {
  std::string path = temp_path("roundtrip");
  std::string plan_bin = plan_to_binary(toy_plan());
  {
    ShmArena a = ShmArena::create(path, plan_bin);
    EXPECT_EQ(a.plan_size(), plan_bin.size());
    EXPECT_EQ(0, std::memcmp(a.plan_data(), plan_bin.data(),
                             plan_bin.size()));
  }
  ShmArena b = ShmArena::open(path);
  EXPECT_EQ(b.plan_size(), plan_bin.size());
  // The frozen plan decodes out of the mapping directly.
  InjectionPlan decoded = plan_from_binary(b.plan_data(), b.plan_size());
  EXPECT_EQ(decoded.to_json(), toy_plan().to_json());
  // The file is exactly the header and the plan: nothing per lease.
  std::string bytes = read_bytes(path);
  EXPECT_EQ(bytes.size(), ShmArena::kHeaderBytes + plan_bin.size());
  EXPECT_EQ(b.size(), bytes.size());
  EXPECT_EQ(bytes.substr(ShmArena::kHeaderBytes), plan_bin);
  std::remove(path.c_str());
}

TEST(ArenaErrors, MissingFile) {
  std::string msg = arena_error_of(
      [] { (void)ShmArena::open("/no/such/dir/epa.arena"); });
  EXPECT_TRUE(contains(msg, "arena '/no/such/dir/epa.arena': open:"));
}

TEST(ArenaErrors, TruncatedHeader) {
  std::string path = temp_path("short");
  write_bytes(path, "EPARENA1 too short");
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "truncated header"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, BadMagic) {
  std::string path = temp_path("magic");
  { ShmArena::create(path, "plan"); }
  std::string bytes = read_bytes(path);
  bytes[0] = 'X';
  write_bytes(path, bytes);
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "not an arena file (bad magic)"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, ForeignEndianness) {
  std::string path = temp_path("endian");
  { ShmArena::create(path, "plan"); }
  std::string bytes = read_bytes(path);
  std::swap(bytes[8], bytes[11]);  // byte-swap the order tag
  std::swap(bytes[9], bytes[10]);
  write_bytes(path, bytes);
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "foreign endianness"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, TruncatedFileFailsTheDeclaredTotal) {
  std::string path = temp_path("total");
  { ShmArena::create(path, "plan"); }
  std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() - 1));
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "truncated?"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, OtherVersionIsRejected) {
  // A mixed-build shm fleet fails here: the report-segment layout was
  // version 1, and the worker protocol version did not change with it.
  std::string path = temp_path("version");
  { ShmArena::create(path, "plan"); }
  std::string bytes = read_bytes(path);
  std::uint32_t one = 1;
  std::memcpy(&bytes[12], &one, sizeof one);
  write_bytes(path, bytes);
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "unsupported arena version 1 (this build reads "
                            "2)"))
      << msg;
  std::remove(path.c_str());
}

// --- the transport's arena ------------------------------------------------
// (The suite name also keys the CI TSan filter: Arena|ShmTransport.)

struct ExposedShm : ShmLocalTransport {
  using ShmLocalTransport::ShmLocalTransport;
  using ShmLocalTransport::worker_args;
};

TEST(ShmTransport, ArenaMatchesTheLeasePartition) {
  // The lease partition does not shape the arena: with or without it,
  // the file is the header and the binary plan, nothing per lease.
  InjectionPlan plan = toy_plan();
  OrchestratorOptions oopts;
  oopts.workers = 2;
  oopts.lease_items = 3;
  std::vector<Lease> partition = lease_partition(plan.items.size(), oopts);
  ASSERT_FALSE(partition.empty());

  LocalProcessConfig cfg;
  cfg.epa_cli = "/bin/false";  // never spawned in this test
  cfg.out_dir = ::testing::TempDir();
  cfg.file_prefix = "epa_shm_test";
  cfg.worker_flags = {"--jobs", "4", "--checkpoint", "1"};
  const std::string arena_path = cfg.out_dir + "/epa_shm_test.arena";
  const std::string plan_bin = plan_to_binary(plan);
  for (bool with_partition : {true, false}) {
    SCOPED_TRACE(with_partition ? "with partition" : "without");
    std::optional<ExposedShm> t;
    if (with_partition)
      t.emplace(cfg, plan, partition);
    else
      t.emplace(cfg, plan);
    EXPECT_EQ(read_bytes(arena_path).size(),
              ShmArena::kHeaderBytes + plan_bin.size());
    ShmArena a = ShmArena::open(arena_path);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(a.plan_data()),
                          a.plan_size()),
              plan_bin);

    // The worker argv points at the arena instead of a plan file, and
    // the worker flags follow verbatim.
    EXPECT_EQ(t->worker_args(),
              (std::vector<std::string>{"worker", "--arena", arena_path,
                                        "--jobs", "4", "--checkpoint", "1"}));
  }
  std::remove(arena_path.c_str());
}

TEST(ShmTransport, LeasePartitionIsContiguousAscending) {
  OrchestratorOptions oopts;
  oopts.workers = 3;
  std::vector<Lease> leases = lease_partition(26, oopts);
  ASSERT_FALSE(leases.empty());
  std::size_t expect_begin = 0;
  for (std::size_t i = 0; i < leases.size(); ++i) {
    EXPECT_EQ(leases[i].seq, i);
    EXPECT_EQ(leases[i].begin, expect_begin);
    EXPECT_GT(leases[i].end, leases[i].begin);
    expect_begin = leases[i].end;
  }
  EXPECT_EQ(expect_begin, 26u);
  // auto grain: roughly four leases per worker.
  EXPECT_EQ(leases.size(), 13u);  // 26 / max(1, 26/(3*4)=2) = 13

  oopts.lease_items = 100;  // one big lease swallows the plan
  EXPECT_EQ(lease_partition(26, oopts).size(), 1u);
  EXPECT_TRUE(lease_partition(0, oopts).empty());
  oopts.workers = 0;
  EXPECT_THROW((void)lease_partition(26, oopts), OrchestratorError);
}

}  // namespace
}  // namespace ep::core
