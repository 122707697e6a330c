#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "common/opcount.h"
#include "data/synthetic.h"
#include "exec/morsel_queue.h"
#include "exec/parallel_for.h"
#include "exec/shard_plan.h"
#include "exec/thread_pool.h"
#include "exec/worker_pools.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/table.h"
#include "test_util.h"

namespace factorml::exec {
namespace {

using factorml::testing::TempDir;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsEveryWorkerExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h = 0;
  ThreadPool::Instance().Run(8, [&](int w) { hits[w]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  // Worker 0 must execute on the calling thread (the serial path).
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  ThreadPool::Instance().Run(1, [&](int) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, MergesWorkerOpCountersIntoCaller) {
  const OpCounters before = GlobalOps();
  ThreadPool::Instance().Run(4, [&](int w) {
    CountMults(static_cast<uint64_t>(w) + 1);  // 1 + 2 + 3 + 4 = 10
  });
  const OpCounters delta = GlobalOps() - before;
  EXPECT_EQ(delta.mults, 10u);
}

TEST(ThreadPoolTest, RepeatedRegionsKeepMerging) {
  const OpCounters before = GlobalOps();
  for (int round = 0; round < 3; ++round) {
    ThreadPool::Instance().Run(3, [&](int) { CountAdds(5); });
  }
  EXPECT_EQ((GlobalOps() - before).adds, 45u);
}

TEST(ThreadPoolTest, DefaultThreadsRoundTrip) {
  const int saved = DefaultThreads();
  SetDefaultThreads(7);
  EXPECT_EQ(DefaultThreads(), 7);
  EXPECT_EQ(EffectiveThreads(0), 7);
  EXPECT_EQ(EffectiveThreads(3), 3);
  SetDefaultThreads(0);  // clamped
  EXPECT_EQ(DefaultThreads(), 1);
  SetDefaultThreads(saved);
}

// ---------------------------------------------------------- Partitioning

TEST(PartitionTest, RowsCoverTotalWithoutOverlap) {
  for (const int64_t total : {1L, 7L, 100L, 4096L}) {
    for (const int parts : {1, 2, 3, 8, 200}) {
      const auto ranges = PartitionRows(total, parts);
      ASSERT_FALSE(ranges.empty());
      EXPECT_LE(static_cast<int>(ranges.size()), parts);
      int64_t expect_begin = 0;
      for (const auto& r : ranges) {
        EXPECT_EQ(r.begin, expect_begin);
        EXPECT_GT(r.end, r.begin);
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, total);
    }
  }
}

TEST(PartitionTest, RowsRespectAlignment) {
  // Interior boundaries on multiples of the page row count: no two
  // ranges share a storage page.
  const auto ranges = PartitionRows(1000, 4, /*align=*/64);
  int64_t expect_begin = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, expect_begin);
    if (i + 1 < ranges.size()) {
      EXPECT_EQ(ranges[i].end % 64, 0);
    }
    expect_begin = ranges[i].end;
  }
  EXPECT_EQ(expect_begin, 1000);
}

TEST(PartitionTest, EmptyTotalYieldsNoRanges) {
  EXPECT_TRUE(PartitionRows(0, 4).empty());
  EXPECT_TRUE(PartitionWeighted(nullptr, 0, 4).empty());
}

TEST(PartitionTest, WeightedNeverSplitsAPositionAndBalances) {
  // One heavy run at the front (the skew of a clustered FK1 column).
  std::vector<int64_t> weights = {1000, 1, 1, 1, 1, 1, 1, 1};
  const auto ranges =
      PartitionWeighted(weights.data(), static_cast<int64_t>(weights.size()), 4);
  ASSERT_FALSE(ranges.empty());
  int64_t expect_begin = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, expect_begin);
    EXPECT_GT(r.end, r.begin);
    expect_begin = r.end;
  }
  EXPECT_EQ(expect_begin, static_cast<int64_t>(weights.size()));
  // The heavy position must sit alone in the first range.
  EXPECT_EQ(ranges[0].end, 1);
}

TEST(PartitionTest, WeightedBalancesUniformWeights) {
  std::vector<int64_t> weights(100, 5);
  const auto ranges = PartitionWeighted(weights.data(), 100, 4);
  ASSERT_EQ(ranges.size(), 4u);
  for (const auto& r : ranges) {
    EXPECT_GE(r.size(), 20);
    EXPECT_LE(r.size(), 30);
  }
}

TEST(PartitionTest, WeightedSinglePosition) {
  // One-run table: every worker count collapses to one whole-run range.
  const int64_t weights[] = {5000};
  for (const int parts : {1, 2, 8}) {
    const auto ranges = PartitionWeighted(weights, 1, parts);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0].begin, 0);
    EXPECT_EQ(ranges[0].end, 1);
  }
}

TEST(PartitionTest, WeightedFewerPositionsThanParts) {
  // total < threads: at most n non-empty ranges, never an empty one.
  std::vector<int64_t> weights = {3, 9, 1};
  const auto ranges = PartitionWeighted(weights.data(), 3, 8);
  ASSERT_LE(ranges.size(), 3u);
  int64_t expect_begin = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, expect_begin);
    EXPECT_GT(r.end, r.begin);
    expect_begin = r.end;
  }
  EXPECT_EQ(expect_begin, 3);
}

TEST(PartitionTest, WeightedAllZeroWeights) {
  // Rids with no matching fact rows: coverage must survive a zero total.
  std::vector<int64_t> weights(6, 0);
  const auto ranges = PartitionWeighted(weights.data(), 6, 3);
  ASSERT_FALSE(ranges.empty());
  int64_t expect_begin = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, expect_begin);
    EXPECT_GT(r.end, r.begin);
    expect_begin = r.end;
  }
  EXPECT_EQ(expect_begin, 6);
}

TEST(PartitionTest, RowsAlignmentLargerThanTotal) {
  // align > total: a single range covering everything, not an empty set.
  const auto ranges = PartitionRows(10, 3, /*align=*/64);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0);
  EXPECT_EQ(ranges[0].end, 10);
}

// ---------------------------------------------------------- Chunk plans

TEST(SplitChunksTest, RowChunksCoverAndAlign) {
  // morsel 100 aligned to 64 -> 128-row chunks; boundaries on multiples.
  const auto chunks = SplitRowChunks(1000, 100, /*align=*/64);
  ASSERT_EQ(chunks.size(), 8u);
  int64_t expect_begin = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].begin, expect_begin);
    if (c + 1 < chunks.size()) {
      EXPECT_EQ(chunks[c].end % 64, 0);
    }
    expect_begin = chunks[c].end;
  }
  EXPECT_EQ(expect_begin, 1000);
}

TEST(SplitChunksTest, RowChunksIndependentOfWorkerCount) {
  // The chunk plan takes no worker count at all — this pins the API shape
  // of the determinism contract: only (total, morsel, align) matter.
  const auto a = SplitRowChunks(4096, 512, 64);
  ASSERT_EQ(a.size(), 8u);
  for (size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].begin, static_cast<int64_t>(c) * 512);
  }
}

TEST(SplitChunksTest, RowChunksDegenerateInputs) {
  EXPECT_TRUE(SplitRowChunks(0, 128).empty());
  // morsel > total and align > total both give one whole-range chunk.
  for (const int64_t align : {1L, 4096L}) {
    const auto chunks = SplitRowChunks(10, 4096, align);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].begin, 0);
    EXPECT_EQ(chunks[0].end, 10);
  }
  // morsel < 1 is clamped to one row per chunk.
  EXPECT_EQ(SplitRowChunks(5, 0).size(), 5u);
}

TEST(SplitChunksTest, WeightedChunksRespectRunAtomicity) {
  // A run longer than the morsel target forms its own chunk; neighbors
  // pack up to the target.
  std::vector<int64_t> weights = {10, 10, 1000, 10, 10, 10};
  const auto chunks = SplitWeightedChunks(weights.data(), 6, 50);
  int64_t expect_begin = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, expect_begin);
    EXPECT_GT(c.end, c.begin);
    expect_begin = c.end;
  }
  EXPECT_EQ(expect_begin, 6);
  // The giant run (position 2) sits ALONE in its chunk: the pending light
  // runs are flushed first, the giant closes its own chunk immediately.
  bool giant_alone = false;
  for (const auto& c : chunks) {
    if (c.begin <= 2 && 2 < c.end) giant_alone = (c.size() == 1);
  }
  EXPECT_TRUE(giant_alone);
}

TEST(SplitChunksTest, WeightedChunksSingleRunAndZeroTails) {
  // One-run table -> one chunk.
  const int64_t one[] = {100000};
  ASSERT_EQ(SplitWeightedChunks(one, 1, 64).size(), 1u);
  // Trailing zero-weight positions join a final short chunk instead of
  // being dropped or forming empty ranges.
  std::vector<int64_t> weights = {64, 64, 0, 0, 0};
  const auto chunks = SplitWeightedChunks(weights.data(), 5, 64);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[2].begin, 2);
  EXPECT_EQ(chunks[2].end, 5);
  EXPECT_TRUE(SplitWeightedChunks(nullptr, 0, 64).empty());
}

// ------------------------------------------------------------ MorselQueue

TEST(MorselQueueTest, OwnerPopsAscendingWithoutStealing) {
  MorselQueue queue(10, 2, /*steal=*/false);
  for (int64_t c = 0; c < 5; ++c) EXPECT_EQ(queue.Next(0), c);
  EXPECT_EQ(queue.Next(0), -1);  // steal off: never crosses blocks
  for (int64_t c = 5; c < 10; ++c) EXPECT_EQ(queue.Next(1), c);
  EXPECT_EQ(queue.Next(1), -1);
  EXPECT_EQ(queue.steals(), 0u);
}

TEST(MorselQueueTest, ThiefRobsFromTheBack) {
  MorselQueue queue(10, 2, /*steal=*/true);
  for (int64_t c = 0; c < 5; ++c) EXPECT_EQ(queue.Next(0), c);
  // Own block dry: worker 0 steals the victim's block back-to-front.
  for (int64_t c = 9; c >= 5; --c) EXPECT_EQ(queue.Next(0), c);
  EXPECT_EQ(queue.Next(0), -1);
  EXPECT_EQ(queue.Next(1), -1);
  EXPECT_EQ(queue.steals(), 5u);
}

TEST(MorselQueueTest, FewerChunksThanWorkers) {
  MorselQueue queue(2, 8, /*steal=*/true);
  // Workers 2..7 own empty blocks and must steal or bail out cleanly.
  EXPECT_EQ(queue.Next(5), 0);
  EXPECT_EQ(queue.Next(6), 1);
  EXPECT_EQ(queue.Next(0), -1);
}

TEST(RunMorselsTest, EveryChunkExactlyOnceUnderContention) {
  for (const bool steal : {false, true}) {
    const auto chunks = SplitRowChunks(64 * 97, 97);
    ASSERT_EQ(chunks.size(), 64u);
    std::vector<std::atomic<int>> hits(chunks.size());
    for (auto& h : hits) h = 0;
    const MorselStats stats =
        RunMorsels(chunks, /*threads=*/8, steal,
                   [&](Range r, int64_t c, int /*worker*/) {
                     EXPECT_EQ(r.begin, c * 97);
                     hits[static_cast<size_t>(c)]++;
                   });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(stats.busy_seconds.size(), 8u);
    if (!steal) {
      EXPECT_EQ(stats.steals, 0u);
    }
  }
}

TEST(RunMorselsTest, SerialDrainIsAscendingAndInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<int64_t> order;
  RunMorsels(SplitRowChunks(100, 10), /*threads=*/1, /*steal=*/true,
             [&](Range, int64_t c, int worker) {
               EXPECT_EQ(worker, 0);
               EXPECT_EQ(std::this_thread::get_id(), caller);
               order.push_back(c);
             });
  ASSERT_EQ(order.size(), 10u);
  for (int64_t c = 0; c < 10; ++c) EXPECT_EQ(order[static_cast<size_t>(c)], c);
}

TEST(RunMorselsTest, NestedRegionRunsInlineWithoutDeadlock) {
  // Regions do not nest: a RunMorsels issued from inside a pool worker
  // must drain serially on that worker.
  std::atomic<int> total{0};
  ThreadPool::Instance().Run(4, [&](int) {
    RunMorsels(SplitRowChunks(20, 5), /*threads=*/4, /*steal=*/true,
               [&](Range, int64_t, int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * 4);
}

TEST(RunMorselsTest, MergesWorkerOpCountersIntoCaller) {
  const OpCounters before = GlobalOps();
  RunMorsels(SplitRowChunks(12, 1), /*threads=*/4, /*steal=*/true,
             [&](Range, int64_t, int) { CountMults(3); });
  EXPECT_EQ((GlobalOps() - before).mults, 36u);
}

TEST(StatusPlumbingTest, FirstErrorPicksWorkerOrder) {
  std::vector<Status> statuses(3);
  EXPECT_TRUE(FirstError(statuses).ok());
  statuses[2] = Status::Internal("late");
  statuses[1] = Status::IoError("early");
  EXPECT_EQ(FirstError(statuses).code(), StatusCode::kIoError);
}

// ----------------------------------------- Concurrent BufferPool access

TEST(BufferPoolConcurrencyTest, ParallelGetPageStress) {
  TempDir dir;
  storage::BufferPool setup_pool(64);
  // A table spanning a few dozen pages with recognizable row contents.
  storage::Schema schema{1, 8};
  auto table =
      std::move(storage::Table::Create(dir.str() + "/stress.fml", schema))
          .value();
  const int64_t rows = 20000;
  std::vector<double> feats(8);
  for (int64_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < 8; ++j) feats[j] = static_cast<double>(i * 8) + j;
    FML_CHECK_OK(table.Append(&i, feats.data()));
  }
  FML_CHECK_OK(table.Finish());
  auto reopened = std::move(storage::Table::Open(table.path())).value();

  // Capacity covers the whole file, so frames are never evicted and the
  // returned pointers stay valid for the duration (the documented
  // contract for concurrent sharing).
  storage::BufferPool shared(reopened.num_data_pages() + 8);
  const storage::IoStats io_before = storage::GlobalIo();
  constexpr int kWorkers = 8;
  std::vector<int64_t> errors(kWorkers, 0);
  ThreadPool::Instance().Run(kWorkers, [&](int w) {
    storage::RowBatch batch;
    // Every worker scans the whole table with a different batch size and
    // hence a different GetPage interleaving.
    storage::TableScanner scan(&reopened, &shared,
                               257 + static_cast<size_t>(w) * 131);
    int64_t seen = 0;
    while (scan.Next(&batch)) {
      for (size_t r = 0; r < batch.num_rows; ++r) {
        const int64_t row = batch.start_row + static_cast<int64_t>(r);
        if (batch.KeysOf(r)[0] != row ||
            batch.feats(r, 3) != static_cast<double>(row * 8) + 3) {
          errors[static_cast<size_t>(w)]++;
        }
      }
      seen += static_cast<int64_t>(batch.num_rows);
    }
    if (!scan.status().ok() || seen != rows) {
      errors[static_cast<size_t>(w)]++;
    }
  });
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(errors[static_cast<size_t>(w)], 0) << "worker " << w;
  }
  // Every page was physically read exactly once across all workers: the
  // latch is held across the miss's disk read, so two concurrent misses
  // on the same page can never both reach the file. Worker I/O deltas are
  // merged into this thread by Run, so the snapshot delta sees them all.
  EXPECT_EQ(shared.cached_pages(), reopened.num_data_pages());
  EXPECT_EQ((storage::GlobalIo() - io_before).pages_read,
            reopened.num_data_pages());
  EXPECT_EQ((storage::GlobalIo() - io_before).pool_misses,
            reopened.num_data_pages());
}

TEST(WorkerPoolsTest, WorkerZeroSharesCallerPool) {
  storage::BufferPool shared(32);
  WorkerPools pools(&shared, 4);
  EXPECT_EQ(pools.Get(0), &shared);
  EXPECT_NE(pools.Get(1), &shared);
  EXPECT_NE(pools.Get(1), pools.Get(2));
  EXPECT_EQ(pools.Get(1)->capacity_pages(), shared.capacity_pages());
}

// Thread-local counters: a worker's I/O lands on its own thread first and
// reaches the caller only through the region's ordered merge.
TEST(ThreadLocalCountersTest, IoMergedAfterRegion) {
  TempDir dir;
  storage::Schema schema{1, 2};
  auto table =
      std::move(storage::Table::Create(dir.str() + "/io.fml", schema)).value();
  std::vector<double> feats = {1.0, 2.0};
  for (int64_t i = 0; i < 2000; ++i) FML_CHECK_OK(table.Append(&i, feats.data()));
  FML_CHECK_OK(table.Finish());
  auto reopened = std::move(storage::Table::Open(table.path())).value();

  const storage::IoStats before = storage::GlobalIo();
  storage::BufferPool shared(256);
  WorkerPools pools(&shared, 4);
  ThreadPool::Instance().Run(4, [&](int w) {
    storage::RowBatch batch;
    storage::TableScanner scan(&reopened, pools.Get(w), 512);
    while (scan.Next(&batch)) {
    }
    FML_CHECK(scan.status().ok());
  });
  const storage::IoStats delta = storage::GlobalIo() - before;
  // All four workers read every data page through their own pool; the
  // caller's snapshot delta must see all of it.
  EXPECT_EQ(delta.pages_read, 4 * reopened.num_data_pages());
}

// ------------------------------------------------------------- I/O crew

TEST(IoCrewTest, SubmitIoRunsDetachedTasks) {
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    ThreadPool::Instance().SubmitIo([&] {
      if (done.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return done.load() == kTasks; }));
}

TEST(IoCrewTest, SubmitIoProgressesWhileComputeRegionIsSaturated) {
  // The crew is disjoint from the compute workers: tasks submitted from
  // inside a busy parallel region must still complete while every compute
  // worker is occupied — the property async prefetch depends on.
  std::atomic<bool> crew_ran{false};
  ThreadPool::Instance().Run(4, [&](int w) {
    if (w == 0) {
      ThreadPool::Instance().SubmitIo([&] { crew_ran.store(true); });
    }
    // Every compute worker spins until the crew task lands (bounded, so a
    // starved crew stalls the region instead of hanging it forever).
    for (int spin = 0; spin < 200000 && !crew_ran.load(); ++spin) {
      std::this_thread::yield();
    }
  });
  // The interesting observation is the spin loop above exiting early on a
  // live crew; the assertion itself only needs the task to land
  // eventually, so give a loaded CI machine a bounded grace period.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!crew_ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(crew_ran.load());
}

// ------------------------------------------------------------ ShardPlan

TEST(ShardPlanTest, SpansCoverChunksContiguouslyAndBalance) {
  const auto chunks = SplitRowChunks(1000, 100);  // 10 equal chunks
  const ShardPlan plan = PlanShards(chunks, 4);
  ASSERT_EQ(plan.num_shards(), 4);
  int64_t next = 0;
  for (int k = 0; k < plan.num_shards(); ++k) {
    const Range span = plan.ChunkSpan(k);
    EXPECT_EQ(span.begin, next);
    EXPECT_FALSE(span.empty());
    next = span.end;
  }
  EXPECT_EQ(next, static_cast<int64_t>(chunks.size()));
  // Near-equal row weight: 10 equal chunks over 4 shards is 3/3/2/2.
  for (int k = 0; k < plan.num_shards(); ++k) {
    EXPECT_LE(plan.ChunkSpan(k).size(), 3);
    EXPECT_GE(plan.ChunkSpan(k).size(), 2);
  }
}

TEST(ShardPlanTest, MoreShardsThanChunksDropsToOneChunkEach) {
  // "shards > rows": a tiny dataset yields fewer chunks than requested
  // shards; the plan caps at one chunk per shard, never an empty span.
  const auto chunks = SplitRowChunks(90, 40);  // 3 chunks
  const ShardPlan plan = PlanShards(chunks, 8);
  ASSERT_EQ(plan.num_shards(), 3);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(plan.ChunkSpan(k).size(), 1);
}

TEST(ShardPlanTest, WeightedChunksStayAtomicAcrossShards) {
  // S/F plans: chunks are whole-position (whole-FK1-run) groups built by
  // SplitWeightedChunks; a giant run is already isolated in its own chunk
  // and sharding must keep every chunk — giant included — in exactly one
  // shard, with the spans covering the chunk ids contiguously.
  const int64_t weights[] = {4, 3, 900, 2, 5};
  const auto chunks = SplitWeightedChunks(weights, 5, 10);
  ASSERT_EQ(chunks.size(), 3u);  // {light, giant-alone, light}
  const ShardPlan plan = PlanShards(chunks, 3);
  ASSERT_EQ(plan.num_shards(), 3);
  int64_t next = 0;
  for (int k = 0; k < plan.num_shards(); ++k) {
    EXPECT_EQ(plan.ChunkSpan(k).begin, next);
    EXPECT_EQ(plan.ChunkSpan(k).size(), 1);
    next = plan.ChunkSpan(k).end;
  }
  EXPECT_EQ(next, 3);
}

TEST(ShardPlanTest, EmptyChunkListAndMaxChunkCap) {
  EXPECT_EQ(PlanShards({}, 4).num_shards(), 0);
  // shards x morsel interaction at the kMaxMorselChunks cap: a tiny
  // morsel over many rows caps at kMaxMorselChunks chunks, and the shard
  // plan still partitions the capped chunk-id space exactly.
  const auto chunks = SplitRowChunks(10 * kMaxMorselChunks, 1);
  ASSERT_EQ(static_cast<int64_t>(chunks.size()), kMaxMorselChunks);
  const ShardPlan plan = PlanShards(chunks, 4);
  ASSERT_EQ(plan.num_shards(), 4);
  EXPECT_EQ(plan.ChunkSpan(0).begin, 0);
  EXPECT_EQ(plan.ChunkSpan(3).end, kMaxMorselChunks);
}

// -------------------------------------------------------- RunMorselSpan

TEST(RunMorselSpanTest, SpanChunksKeepGlobalOwners) {
  // The shard plane's time-sharing rule: within a span, a chunk is
  // executed by the worker that owns it in the whole-plan split (steal
  // off), so per-worker visit order — and buffer-pool residency — is
  // invariant under sharding.
  const auto chunks = SplitRowChunks(12 * 8, 8);  // 12 chunks
  const auto owned = PartitionRows(12, 3);        // global split, 3 workers
  for (const Range span : {Range{0, 12}, Range{2, 7}, Range{5, 12}}) {
    std::vector<std::atomic<int>> worker_of(12);
    for (auto& w : worker_of) w = -1;
    RunMorselSpan(chunks, span, /*threads=*/3, /*steal=*/false,
                  [&](Range, int64_t c, int worker) {
                    worker_of[static_cast<size_t>(c)] = worker;
                  });
    for (int64_t c = 0; c < 12; ++c) {
      if (c < span.begin || c >= span.end) {
        EXPECT_EQ(worker_of[static_cast<size_t>(c)].load(), -1);
        continue;
      }
      int expect = -1;
      for (size_t w = 0; w < owned.size(); ++w) {
        if (c >= owned[w].begin && c < owned[w].end) {
          expect = static_cast<int>(w);
        }
      }
      EXPECT_EQ(worker_of[static_cast<size_t>(c)].load(), expect)
          << "chunk " << c << " span [" << span.begin << "," << span.end
          << ")";
    }
  }
}

TEST(RunMorselSpanTest, SequentialSpansCoverEveryChunkOnce) {
  for (const bool steal : {false, true}) {
    const auto chunks = SplitRowChunks(31 * 13, 13);
    const ShardPlan plan = PlanShards(chunks, 3);
    std::vector<std::atomic<int>> hits(chunks.size());
    for (auto& h : hits) h = 0;
    for (int k = 0; k < plan.num_shards(); ++k) {
      RunMorselSpan(chunks, plan.ChunkSpan(k), /*threads=*/4, steal,
                    [&](Range r, int64_t c, int) {
                      EXPECT_EQ(r.begin, chunks[static_cast<size_t>(c)].begin);
                      hits[static_cast<size_t>(c)]++;
                    });
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(RunMorselSpanTest, SerialDrainAscendingWithinSpanOnly) {
  std::vector<int64_t> order;
  RunMorselSpan(SplitRowChunks(100, 10), Range{3, 8}, /*threads=*/1,
                /*steal=*/true,
                [&](Range, int64_t c, int worker) {
                  EXPECT_EQ(worker, 0);
                  order.push_back(c);
                });
  ASSERT_EQ(order.size(), 5u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int64_t>(i) + 3);
  }
}

TEST(RunMorselSpanTest, OutOfRangeSpanClampsAndEmptySpanNoops) {
  const auto chunks = SplitRowChunks(40, 10);  // 4 chunks
  std::atomic<int> hits{0};
  RunMorselSpan(chunks, Range{2, 99}, /*threads=*/2, /*steal=*/true,
                [&](Range, int64_t, int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 2);  // chunks 2 and 3 only
  hits = 0;
  RunMorselSpan(chunks, Range{3, 3}, /*threads=*/2, /*steal=*/false,
                [&](Range, int64_t, int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0);  // empty trailing span: clean no-op
}

}  // namespace
}  // namespace factorml::exec
