#include <gtest/gtest.h>

#include "nicsim/group_table.h"

namespace superfe {
namespace {

GroupKey Key(uint32_t ip) {
  PacketRecord pkt;
  pkt.tuple.src_ip = ip;
  return GroupKey::Of(InitiatorKey::Of(pkt), Granularity::kHost);
}

struct TestState {
  int value = 0;
};

TEST(GroupTableTest, CreateThenFind) {
  GroupTable<TestState> table(16, 4);
  bool via_dram = false;
  TestState& state = table.FindOrCreate(Key(1), Key(1).Hash(), [] { return TestState{42}; },
                                        via_dram);
  EXPECT_EQ(state.value, 42);
  EXPECT_FALSE(via_dram);

  TestState* found = table.Find(Key(1), Key(1).Hash());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value, 42);
  EXPECT_EQ(found, &state);
}

TEST(GroupTableTest, FindMissingIsNull) {
  GroupTable<TestState> table(16, 4);
  EXPECT_EQ(table.Find(Key(9), Key(9).Hash()), nullptr);
}

TEST(GroupTableTest, SecondCreateReturnsSameState) {
  GroupTable<TestState> table(16, 4);
  bool via_dram = false;
  TestState& a = table.FindOrCreate(Key(5), Key(5).Hash(), [] { return TestState{1}; },
                                    via_dram);
  a.value = 77;
  TestState& b = table.FindOrCreate(Key(5), Key(5).Hash(), [] { return TestState{1}; },
                                    via_dram);
  EXPECT_EQ(b.value, 77);
  EXPECT_EQ(table.size(), 1u);
}

TEST(GroupTableTest, ChainOverflowGoesToDram) {
  // One bucket, width 2: the third distinct key overflows.
  GroupTable<TestState> table(1, 2);
  bool via_dram = false;
  table.FindOrCreate(Key(1), 0, [] { return TestState{}; }, via_dram);
  EXPECT_FALSE(via_dram);
  table.FindOrCreate(Key(2), 0, [] { return TestState{}; }, via_dram);
  EXPECT_FALSE(via_dram);
  table.FindOrCreate(Key(3), 0, [] { return TestState{}; }, via_dram);
  EXPECT_TRUE(via_dram);
  EXPECT_EQ(table.stats().dram_entries, 1u);
  EXPECT_EQ(table.size(), 3u);
  // DRAM entries are still findable.
  EXPECT_NE(table.Find(Key(3), 0), nullptr);
}

TEST(GroupTableTest, DramRateTracksOverflowLookups) {
  GroupTable<TestState> table(1, 1);
  bool via_dram = false;
  table.FindOrCreate(Key(1), 0, [] { return TestState{}; }, via_dram);
  for (int i = 0; i < 9; ++i) {
    table.FindOrCreate(Key(2), 0, [] { return TestState{}; }, via_dram);
    EXPECT_TRUE(via_dram);
  }
  EXPECT_NEAR(table.stats().DramRate(), 0.9, 1e-9);
}

TEST(GroupTableTest, ForEachVisitsEverything) {
  GroupTable<TestState> table(4, 1);
  bool via_dram = false;
  for (uint32_t i = 0; i < 20; ++i) {
    table.FindOrCreate(Key(i), Key(i).Hash(), [&] { return TestState{static_cast<int>(i)}; },
                       via_dram);
  }
  int visited = 0;
  int sum = 0;
  table.ForEach([&](const GroupKey& key, TestState& state) {
    (void)key;
    ++visited;
    sum += state.value;
  });
  EXPECT_EQ(visited, 20);
  EXPECT_EQ(sum, 190);  // 0 + 1 + ... + 19.
}

TEST(GroupTableTest, ClearEmptiesEverything) {
  GroupTable<TestState> table(2, 1);
  bool via_dram = false;
  for (uint32_t i = 0; i < 10; ++i) {
    table.FindOrCreate(Key(i), Key(i).Hash(), [] { return TestState{}; }, via_dram);
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.stats().dram_entries, 0u);
  EXPECT_EQ(table.Find(Key(3), Key(3).Hash()), nullptr);
}

}  // namespace
}  // namespace superfe
