#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "core/factorml.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/page_cursor.h"
#include "storage/paged_file.h"
#include "storage/table.h"
#include "test_util.h"

namespace factorml::storage {
namespace {

using factorml::testing::TempDir;

// -------------------------------------------------------------- PagedFile

TEST(PagedFileTest, AppendAndReadBack) {
  TempDir dir;
  auto file_or = PagedFile::Create(dir.str() + "/f.pg");
  ASSERT_TRUE(file_or.ok());
  auto file = std::move(file_or).value();

  std::vector<char> page(kPageSize, 'a');
  auto p0 = file->AppendPage(page.data());
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(p0.value(), 0u);
  page.assign(kPageSize, 'b');
  auto p1 = file->AppendPage(page.data());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1.value(), 1u);
  EXPECT_EQ(file->num_pages(), 2u);

  std::vector<char> buf(kPageSize);
  FML_ASSERT_OK(file->ReadPage(0, buf.data()));
  EXPECT_EQ(buf[10], 'a');
  FML_ASSERT_OK(file->ReadPage(1, buf.data()));
  EXPECT_EQ(buf[10], 'b');
}

TEST(PagedFileTest, ReadPastEndFails) {
  TempDir dir;
  auto file = std::move(PagedFile::Create(dir.str() + "/f.pg")).value();
  std::vector<char> buf(kPageSize);
  EXPECT_EQ(file->ReadPage(0, buf.data()).code(), StatusCode::kOutOfRange);
}

TEST(PagedFileTest, OpenMissingFileFails) {
  auto r = PagedFile::Open("/nonexistent/path/zzz.pg");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(PagedFileTest, ReadOnlyRejectsWrites) {
  TempDir dir;
  const std::string path = dir.str() + "/f.pg";
  {
    auto file = std::move(PagedFile::Create(path)).value();
    std::vector<char> page(kPageSize, 'x');
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
    FML_ASSERT_OK(file->Flush());
  }
  auto ro = std::move(PagedFile::Open(path)).value();
  std::vector<char> page(kPageSize, 'y');
  EXPECT_EQ(ro->AppendPage(page.data()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ro->WritePage(0, page.data()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PagedFileTest, IoStatsCountTransfers) {
  TempDir dir;
  auto file = std::move(PagedFile::Create(dir.str() + "/f.pg")).value();
  const IoStats before = GlobalIo();
  std::vector<char> page(kPageSize, 'z');
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  FML_ASSERT_OK(file->ReadPage(0, page.data()));
  const IoStats delta = GlobalIo() - before;
  EXPECT_EQ(delta.pages_written, 2u);
  EXPECT_EQ(delta.pages_read, 1u);
  EXPECT_EQ(delta.bytes_written(), 2 * kPageSize);
}

TEST(PagedFileTest, UniqueIdsAcrossFiles) {
  TempDir dir;
  auto a = std::move(PagedFile::Create(dir.str() + "/a.pg")).value();
  auto b = std::move(PagedFile::Create(dir.str() + "/b.pg")).value();
  EXPECT_NE(a->id(), b->id());
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPoolTest, CachesRepeatedReads) {
  TempDir dir;
  auto file = std::move(PagedFile::Create(dir.str() + "/f.pg")).value();
  std::vector<char> page(kPageSize, 'q');
  ASSERT_TRUE(file->AppendPage(page.data()).ok());

  BufferPool pool(4);
  const IoStats before = GlobalIo();
  auto r1 = pool.GetPage(file.get(), 0);
  ASSERT_TRUE(r1.ok());
  auto r2 = pool.GetPage(file.get(), 0);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());  // same frame
  const IoStats delta = GlobalIo() - before;
  EXPECT_EQ(delta.pages_read, 1u);
  EXPECT_EQ(delta.pool_hits, 1u);
  EXPECT_EQ(delta.pool_misses, 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  TempDir dir;
  auto file = std::move(PagedFile::Create(dir.str() + "/f.pg")).value();
  std::vector<char> page(kPageSize);
  for (int i = 0; i < 4; ++i) {
    page.assign(kPageSize, static_cast<char>('a' + i));
    ASSERT_TRUE(file->AppendPage(page.data()).ok());
  }
  BufferPool pool(2);
  ASSERT_TRUE(pool.GetPage(file.get(), 0).ok());
  ASSERT_TRUE(pool.GetPage(file.get(), 1).ok());
  // Touch page 0 so page 1 becomes the LRU victim.
  ASSERT_TRUE(pool.GetPage(file.get(), 0).ok());
  ASSERT_TRUE(pool.GetPage(file.get(), 2).ok());  // evicts 1
  const IoStats before = GlobalIo();
  ASSERT_TRUE(pool.GetPage(file.get(), 0).ok());  // still cached
  EXPECT_EQ((GlobalIo() - before).pages_read, 0u);
  const IoStats before2 = GlobalIo();
  ASSERT_TRUE(pool.GetPage(file.get(), 1).ok());  // was evicted
  EXPECT_EQ((GlobalIo() - before2).pages_read, 1u);
}

TEST(BufferPoolTest, ClearDropsFrames) {
  TempDir dir;
  auto file = std::move(PagedFile::Create(dir.str() + "/f.pg")).value();
  std::vector<char> page(kPageSize, 'm');
  ASSERT_TRUE(file->AppendPage(page.data()).ok());
  BufferPool pool(2);
  ASSERT_TRUE(pool.GetPage(file.get(), 0).ok());
  EXPECT_EQ(pool.cached_pages(), 1u);
  pool.Clear();
  EXPECT_EQ(pool.cached_pages(), 0u);
  const IoStats before = GlobalIo();
  ASSERT_TRUE(pool.GetPage(file.get(), 0).ok());
  EXPECT_EQ((GlobalIo() - before).pages_read, 1u);
}

TEST(PagedFileTest, SimulatedLatencySlowsTransfers) {
  TempDir dir;
  auto file = std::move(PagedFile::Create(dir.str() + "/f.pg")).value();
  std::vector<char> page(kPageSize, 'l');
  ASSERT_TRUE(file->AppendPage(page.data()).ok());

  SetSimulatedIoLatencyMicros(2000, 0);  // 2ms per read
  EXPECT_EQ(SimulatedReadLatencyMicros(), 2000u);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(file->ReadPage(0, page.data()).ok());
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  SetSimulatedIoLatencyMicros(0, 0);
  EXPECT_GE(ms, 9.0);  // 5 reads x 2ms, minus scheduler slack
}

// ----------------------------------------------------------------- Table

TEST(TableTest, SchemaGeometry) {
  Schema s{2, 3};
  EXPECT_EQ(s.RowBytes(), 40u);
  EXPECT_EQ(s.RowsPerPage(), (kPageSize - 8) / 40);
}

TEST(TableTest, AppendFinishOpenScan) {
  TempDir dir;
  const std::string path = dir.str() + "/t.fml";
  const Schema schema{1, 2};
  const int64_t n = 1000;
  {
    auto t = std::move(Table::Create(path, schema)).value();
    for (int64_t i = 0; i < n; ++i) {
      const double feats[] = {static_cast<double>(i) * 0.5,
                              static_cast<double>(-i)};
      FML_ASSERT_OK(t.Append(&i, feats));
    }
    FML_ASSERT_OK(t.Finish());
    EXPECT_EQ(t.num_rows(), n);
  }
  auto t = std::move(Table::Open(path)).value();
  EXPECT_EQ(t.num_rows(), n);
  EXPECT_EQ(t.schema().num_keys, 1u);
  EXPECT_EQ(t.schema().num_feats, 2u);

  BufferPool pool(64);
  TableScanner scanner(&t, &pool, 128);
  RowBatch batch;
  int64_t seen = 0;
  while (scanner.Next(&batch)) {
    for (size_t r = 0; r < batch.num_rows; ++r) {
      const int64_t row = batch.start_row + static_cast<int64_t>(r);
      EXPECT_EQ(batch.KeysOf(r)[0], row);
      EXPECT_DOUBLE_EQ(batch.feats(r, 0), row * 0.5);
      EXPECT_DOUBLE_EQ(batch.feats(r, 1), -static_cast<double>(row));
      ++seen;
    }
  }
  FML_EXPECT_OK(scanner.status());
  EXPECT_EQ(seen, n);
}

TEST(TableTest, ReadRowsRandomAccessAcrossPageBoundaries) {
  TempDir dir;
  const Schema schema{1, 1};
  auto t = std::move(Table::Create(dir.str() + "/t.fml", schema)).value();
  const int64_t n = 3000;  // several pages
  for (int64_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i * i % 997);
    FML_ASSERT_OK(t.Append(&i, &f));
  }
  FML_ASSERT_OK(t.Finish());

  BufferPool pool(64);
  RowBatch batch;
  // A range that straddles page boundaries.
  const size_t rpp = schema.RowsPerPage();
  const int64_t start = static_cast<int64_t>(rpp) - 3;
  FML_ASSERT_OK(t.ReadRows(&pool, start, rpp + 7, &batch));
  EXPECT_EQ(batch.num_rows, rpp + 7);
  for (size_t r = 0; r < batch.num_rows; ++r) {
    const int64_t row = start + static_cast<int64_t>(r);
    EXPECT_EQ(batch.KeysOf(r)[0], row);
    EXPECT_DOUBLE_EQ(batch.feats(r, 0), static_cast<double>(row * row % 997));
  }
}

TEST(TableTest, ReadRowsOutOfBoundsFails) {
  TempDir dir;
  auto t = std::move(Table::Create(dir.str() + "/t.fml", Schema{1, 1}))
               .value();
  const int64_t k = 0;
  const double f = 0.0;
  FML_ASSERT_OK(t.Append(&k, &f));
  FML_ASSERT_OK(t.Finish());
  BufferPool pool(4);
  RowBatch batch;
  EXPECT_EQ(t.ReadRows(&pool, 0, 2, &batch).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(t.ReadRows(&pool, -1, 1, &batch).code(), StatusCode::kOutOfRange);
}

TEST(TableTest, AppendAfterFinishFails) {
  TempDir dir;
  auto t = std::move(Table::Create(dir.str() + "/t.fml", Schema{1, 1}))
               .value();
  const int64_t k = 0;
  const double f = 1.0;
  FML_ASSERT_OK(t.Append(&k, &f));
  FML_ASSERT_OK(t.Finish());
  EXPECT_EQ(t.Append(&k, &f).code(), StatusCode::kFailedPrecondition);
}

TEST(TableTest, OpenRejectsNonTableFile) {
  TempDir dir;
  const std::string path = dir.str() + "/junk.pg";
  {
    auto f = std::move(PagedFile::Create(path)).value();
    std::vector<char> page(kPageSize, 7);
    ASSERT_TRUE(f->AppendPage(page.data()).ok());
    FML_ASSERT_OK(f->Flush());
  }
  auto r = Table::Open(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, RowTooLargeRejected) {
  TempDir dir;
  auto r = Table::Create(dir.str() + "/t.fml", Schema{1, 2000});
  EXPECT_FALSE(r.ok());
}

/// Writes a valid one-page, 10-row table under `dir`, then overwrites its
/// header's (num_keys, num_feats, num_rows) with the given values — the
/// shape a corrupted or hostile file presents to Table::Open.
std::string ForgedTable(const std::string& dir, uint64_t num_keys,
                        uint64_t num_feats, int64_t num_rows) {
  const std::string path = dir + "/forged.fml";
  {
    auto t = std::move(Table::Create(path, Schema{1, 1})).value();
    for (int64_t i = 0; i < 10; ++i) {
      const double f = 0.5;
      FML_CHECK(t.Append(&i, &f).ok());
    }
    FML_CHECK(t.Finish().ok());
  }
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  FML_CHECK(f != nullptr);
  // Header layout: magic, num_keys, num_feats, num_rows (8 bytes each).
  const uint64_t fields[3] = {num_keys, num_feats,
                              static_cast<uint64_t>(num_rows)};
  FML_CHECK(std::fseek(f, 8, SEEK_SET) == 0);
  FML_CHECK(std::fwrite(fields, sizeof(fields), 1, f) == 1);
  std::fclose(f);
  return path;
}

TEST(TableTest, OpenAcceptsUnforgedHeader) {
  TempDir dir;
  auto r = Table::Open(ForgedTable(dir.str(), 1, 1, 10));
  FML_ASSERT_OK(r.status());
  EXPECT_EQ(r->num_rows(), 10);
}

TEST(TableTest, OpenRejectsZeroColumnRows) {
  // RowBytes() == 0 would make RowsPerPage() divide by zero.
  TempDir dir;
  const std::string path = ForgedTable(dir.str(), 0, 0, 10);
  auto r = Table::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find(path), std::string::npos)
      << r.status().ToString();
}

TEST(TableTest, OpenRejectsRowWiderThanAPage) {
  // RowsPerPage() == 0 would make the cursor's row-to-page division
  // divide by zero.
  TempDir dir;
  const std::string path = ForgedTable(dir.str(), 1, kPageSize / 8, 10);
  auto r = Table::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find(path), std::string::npos)
      << r.status().ToString();
}

TEST(TableTest, OpenRejectsRowCountTheDataPagesCannotHold) {
  TempDir dir;
  const int64_t one_page = static_cast<int64_t>(Schema{1, 1}.RowsPerPage());
  for (const int64_t rows : {int64_t{-1}, one_page + 1}) {
    const std::string path = ForgedTable(dir.str(), 1, 1, rows);
    auto r = Table::Open(path);
    ASSERT_FALSE(r.ok()) << rows;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find(path), std::string::npos)
        << r.status().ToString();
  }
  // Exactly one full page is still fine.
  FML_EXPECT_OK(Table::Open(ForgedTable(dir.str(), 1, 1, one_page)).status());
}

TEST(TableTest, EmptyTableScansNothing) {
  TempDir dir;
  auto t = std::move(Table::Create(dir.str() + "/t.fml", Schema{1, 1}))
               .value();
  FML_ASSERT_OK(t.Finish());
  BufferPool pool(4);
  TableScanner scanner(&t, &pool, 16);
  RowBatch batch;
  EXPECT_FALSE(scanner.Next(&batch));
  FML_EXPECT_OK(scanner.status());
}

TEST(TableTest, ScannerResetRestartsScan) {
  TempDir dir;
  auto t = std::move(Table::Create(dir.str() + "/t.fml", Schema{1, 1}))
               .value();
  for (int64_t i = 0; i < 10; ++i) {
    const double f = static_cast<double>(i);
    FML_ASSERT_OK(t.Append(&i, &f));
  }
  FML_ASSERT_OK(t.Finish());
  BufferPool pool(4);
  TableScanner scanner(&t, &pool, 4);
  RowBatch batch;
  int count1 = 0;
  while (scanner.Next(&batch)) count1 += static_cast<int>(batch.num_rows);
  scanner.Reset();
  int count2 = 0;
  while (scanner.Next(&batch)) count2 += static_cast<int>(batch.num_rows);
  EXPECT_EQ(count1, 10);
  EXPECT_EQ(count2, 10);
}

TEST(TableTest, NumDataPagesExcludesHeader) {
  TempDir dir;
  const Schema schema{1, 1};
  auto t = std::move(Table::Create(dir.str() + "/t.fml", schema)).value();
  const int64_t n = static_cast<int64_t>(schema.RowsPerPage()) * 2 + 1;
  for (int64_t i = 0; i < n; ++i) {
    const double f = 0.0;
    FML_ASSERT_OK(t.Append(&i, &f));
  }
  FML_ASSERT_OK(t.Finish());
  EXPECT_EQ(t.num_data_pages(), 3u);
}

// ----------------------------------------- PageCursor / Prefetcher plane

namespace {

/// A multi-page table with self-describing rows: key = row id, feature =
/// f(row), so any decode error is caught at any access order.
Table MakeWideTable(const std::string& path, int64_t rows) {
  auto t = std::move(Table::Create(path, Schema{1, 4})).value();
  for (int64_t i = 0; i < rows; ++i) {
    const double feats[] = {static_cast<double>(i) * 0.25,
                            static_cast<double>(i % 101),
                            static_cast<double>(-i),
                            static_cast<double>(i * i % 997)};
    FML_CHECK(t.Append(&i, feats).ok());
  }
  FML_CHECK(t.Finish().ok());
  return t;
}

void ExpectRowsCorrect(const RowBatch& batch) {
  for (size_t r = 0; r < batch.num_rows; ++r) {
    const int64_t row = batch.start_row + static_cast<int64_t>(r);
    ASSERT_EQ(batch.KeysOf(r)[0], row);
    ASSERT_DOUBLE_EQ(batch.feats(r, 0), row * 0.25);
    ASSERT_DOUBLE_EQ(batch.feats(r, 2), -static_cast<double>(row));
  }
}

/// Scans the whole table with the given pool/batch size, verifying every
/// decoded row; returns the I/O delta of the scan.
IoStats ScanAll(const Table& t, BufferPool* pool, size_t batch_rows,
                Prefetcher* prefetcher, int64_t depth) {
  TableScanner scanner(&t, pool, batch_rows);
  if (prefetcher != nullptr) scanner.EnablePrefetch(prefetcher, depth);
  const IoStats before = GlobalIo();
  RowBatch batch;
  int64_t seen = 0;
  while (scanner.Next(&batch)) {
    ExpectRowsCorrect(batch);
    seen += static_cast<int64_t>(batch.num_rows);
  }
  EXPECT_TRUE(scanner.status().ok()) << scanner.status().ToString();
  EXPECT_EQ(seen, t.num_rows());
  if (prefetcher != nullptr) prefetcher->Drain();
  return GlobalIo() - before;
}

}  // namespace

TEST(PageCursorTest, DemandPathCountsAreExactWithPrefetchOff) {
  // The --prefetch=off golden: a cold sequential scan through the plane
  // costs exactly one physical read and one miss per data page, no
  // prefetch counters — byte-identical to the pre-refactor demand engine
  // that the pipeline goldens pin.
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 4000);
  BufferPool pool(64);
  const IoStats delta = ScanAll(t, &pool, 128, nullptr, 0);
  EXPECT_EQ(delta.pages_read, t.num_data_pages());
  EXPECT_EQ(delta.pool_misses, t.num_data_pages());
  EXPECT_EQ(delta.prefetch_reads, 0u);
  EXPECT_EQ(delta.prefetch_hits, 0u);
  EXPECT_EQ(delta.demand_reads(), t.num_data_pages());
}

TEST(PageCursorTest, PrefetchedScanServesDemandFromLandedFrames) {
  // Deterministic variant: land the whole table first, then scan — every
  // demand lookup must be a prefetch hit and cost zero physical reads.
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 4000);
  BufferPool pool(64);  // table fits: every prefetched page can land
  Prefetcher prefetcher;
  PageCursor cursor(&t, &pool);
  cursor.SetPrefetcher(&prefetcher);
  const IoStats before = GlobalIo();
  cursor.PrefetchRows(0, t.num_rows());
  prefetcher.Drain();
  EXPECT_EQ((GlobalIo() - before).prefetch_reads, t.num_data_pages());
  const IoStats delta = ScanAll(t, &pool, 128, nullptr, 0);
  EXPECT_EQ(delta.pages_read, 0u);
  EXPECT_EQ(delta.pool_misses, 0u);
  EXPECT_EQ(delta.prefetch_hits, t.num_data_pages());
}

TEST(PageCursorTest, LiveDoubleBufferedScanStaysConsistent) {
  // The racy variant: crew and demand reader run concurrently. Whatever
  // the schedule, the accounting invariants must hold: every demand miss
  // is exactly one demand physical read, every physical read is demand or
  // prefetch, and a consumed prefetched frame is counted once.
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 4000);
  BufferPool pool(64);
  Prefetcher prefetcher;
  const IoStats delta = ScanAll(t, &pool, 128, &prefetcher, 2);
  EXPECT_EQ(delta.prefetch_reads, prefetcher.pages_fetched());
  EXPECT_EQ(delta.demand_reads(), delta.pool_misses);
  EXPECT_GE(delta.pages_read, t.num_data_pages());
  EXPECT_LE(delta.prefetch_hits, delta.prefetch_reads);
}

TEST(PageCursorTest, PrefetchRacesEvictionUnderTinyPool) {
  // capacity << prefetch depth: the prefetcher continuously races the
  // demand reader for frames of a 2-page pool. Decoded rows must stay
  // correct (the reader's current frame is never evicted) and the scan
  // must not deadlock or leak requests. Run repeatedly to shake schedules;
  // TSan covers the data-race side in CI.
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 4000);
  BufferPool pool(2);
  Prefetcher prefetcher;
  for (int round = 0; round < 5; ++round) {
    const IoStats delta = ScanAll(t, &pool, 64, &prefetcher, 8);
    // Every page is read physically at least once per round (nothing can
    // stay resident across the scan in a 2-page pool).
    EXPECT_GE(delta.pages_read, t.num_data_pages());
  }
}

TEST(PageCursorTest, InsertPrefetchedNeverEvictsTheDemandFrame) {
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 1000);
  BufferPool pool(2);
  // Demand-read page 1; its frame is the reader's current pointer.
  auto page = pool.GetPage(t.file(), 1);
  ASSERT_TRUE(page.ok());
  const char* held = page.value();
  const uint64_t held_key0 = held[0];  // touch before
  // Fill the pool with prefetched frames; the held frame must survive.
  for (uint64_t p = 2; p <= 5; ++p) {
    auto buf = std::make_unique<char[]>(kPageSize);
    ASSERT_TRUE(t.file()->ReadPage(p, buf.get()).ok());
    pool.InsertPrefetched(t.file(), p, std::move(buf));
  }
  EXPECT_TRUE(pool.Contains(t.file(), 1)) << "demand frame evicted";
  EXPECT_EQ(static_cast<uint64_t>(held[0]), held_key0);
  // And duplicates / full-pool inserts report failure instead of evicting
  // the protected frame.
  auto dup = std::make_unique<char[]>(kPageSize);
  ASSERT_TRUE(t.file()->ReadPage(1, dup.get()).ok());
  EXPECT_FALSE(pool.InsertPrefetched(t.file(), 1, std::move(dup)));
}

TEST(PageCursorTest, PrefetchedFrameHitClearsMarkOnce) {
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 1000);
  BufferPool pool(8);
  auto buf = std::make_unique<char[]>(kPageSize);
  ASSERT_TRUE(t.file()->ReadPage(1, buf.get()).ok());
  ASSERT_TRUE(pool.InsertPrefetched(t.file(), 1, std::move(buf)));
  const IoStats before = GlobalIo();
  ASSERT_TRUE(pool.GetPage(t.file(), 1).ok());
  ASSERT_TRUE(pool.GetPage(t.file(), 1).ok());
  const IoStats delta = GlobalIo() - before;
  EXPECT_EQ(delta.pool_hits, 2u);
  EXPECT_EQ(delta.prefetch_hits, 1u) << "mark must clear on first demand";
  EXPECT_EQ(delta.pages_read, 0u);
}

TEST(PageCursorTest, DrainFoldsCrewReadsIntoCaller) {
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 2000);
  BufferPool pool(64);
  Prefetcher prefetcher;
  PageCursor cursor(&t, &pool);
  cursor.SetPrefetcher(&prefetcher);
  const IoStats before = GlobalIo();
  cursor.PrefetchRows(0, t.num_rows());
  prefetcher.Drain();
  const IoStats delta = GlobalIo() - before;
  EXPECT_EQ(delta.prefetch_reads, prefetcher.pages_fetched());
  EXPECT_EQ(delta.pages_read, delta.prefetch_reads);
  EXPECT_GT(delta.prefetch_reads, 0u);
  EXPECT_EQ(delta.pool_misses, 0u) << "prefetch is not a demand lookup";
}

// ------------------------------------------------ per-shard IoStats sums
//
// The shard plane charges every scan-window counter — demand lookups,
// physical reads, and the prefetch crew's folded reads/hits — to exactly
// one shard's IoStats window (contiguous GlobalIo snapshots around each
// span scan + drain). The per-shard counters must therefore sum exactly
// to the run totals for counters that only the scan windows can produce,
// and never exceed the totals for the rest: a drain landing outside its
// shard's window (lost count) or inside two (double count) breaks this.

TEST(ShardIoAccountingTest, PerShardCountersSumToMergedTotals) {
  TempDir dir;
  BufferPool pool(64);  // small pool: real demand misses every pass
  data::SyntheticSpec spec;
  spec.dir = dir.str();
  spec.s_rows = 6000;
  spec.s_feats = 4;
  spec.attrs = {data::AttributeSpec{50, 4}};
  spec.with_target = false;
  spec.seed = 7;
  auto rel = std::move(data::GenerateSynthetic(spec, &pool).value());

  gmm::GmmOptions opt;
  opt.num_components = 2;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 500;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.shards = 3;
  for (const bool prefetch : {false, true}) {
    opt.prefetch = prefetch;
    for (const auto algo :
         {core::Algorithm::kMaterialized, core::Algorithm::kFactorized}) {
      pool.Clear();
      core::TrainReport report;
      auto params = core::TrainGmm(rel, opt, algo, &pool, &report);
      ASSERT_TRUE(params.ok()) << params.status().ToString();
      ASSERT_EQ(report.shard_stats.size(), 3u);
      IoStats sum;
      for (const auto& stat : report.shard_stats) sum += stat.io;
      // Prefetch happens only inside shard scan windows, and the crew's
      // physical reads fold in at each shard's drain: exact totals.
      EXPECT_EQ(sum.prefetch_reads, report.io.prefetch_reads);
      EXPECT_EQ(sum.prefetch_hits, report.io.prefetch_hits);
      // Demand I/O also covers non-scan work (materialization, view
      // loads, seed-row init), so scans are a strict subset of the run.
      EXPECT_LE(sum.pages_read, report.io.pages_read);
      EXPECT_LE(sum.pool_hits, report.io.pool_hits);
      EXPECT_LE(sum.pool_misses, report.io.pool_misses);
      EXPECT_LE(sum.stall_micros, report.io.stall_micros);
      if (prefetch) {
        EXPECT_GT(sum.pages_read, 0u);
      } else {
        EXPECT_EQ(sum.prefetch_reads, 0u);
        EXPECT_GT(sum.pool_misses, 0u) << "scan windows saw no demand I/O";
      }
    }
  }
}


// ------------------------------------------------- column-strip decode

TEST(ColumnStripsTest, StripDecodeMatchesRowDecodeAcrossPageBoundaries) {
  // A read spanning page boundaries, with a strip height unaligned to
  // both the page geometry and the read size: every strip but the last is
  // full, and every (row, col) entry and key must match the row decode.
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 4000);
  BufferPool pool(64);
  const size_t rpp = t.schema().RowsPerPage();
  const int64_t start = static_cast<int64_t>(rpp) - 3;
  const size_t count = rpp * 2 + 7;
  RowBatch rows;
  FML_ASSERT_OK(t.ReadRows(&pool, start, count, &rows));
  ColumnStrips strips;
  FML_ASSERT_OK(t.ReadStrips(&pool, start, count, /*strip_rows=*/100,
                             &strips));
  EXPECT_EQ(strips.start_row, start);
  EXPECT_EQ(strips.num_rows, count);
  EXPECT_EQ(strips.num_cols, 4u);
  EXPECT_EQ(strips.num_keys, 1u);
  EXPECT_EQ(strips.num_strips, (count + 99) / 100);
  EXPECT_EQ(strips.RowsInStrip(strips.num_strips - 1), count % 100);
  for (size_t s = 0; s < strips.num_strips; ++s) {
    for (size_t r = 0; r < strips.RowsInStrip(s); ++r) {
      const size_t row = strips.StripStart(s) + r;
      ASSERT_EQ(strips.KeysOf(row)[0], rows.KeysOf(row)[0]);
      for (size_t c = 0; c < 4; ++c) {
        ASSERT_EQ(strips.Col(s, c)[r], rows.feats(row, c));
      }
    }
  }

  // Two row ranges decoded into one block, the second at a destination
  // row that is neither zero nor strip-aligned (an M mini-batch gathering
  // several rid groups): each part equals its own row decode.
  const int64_t start2 = static_cast<int64_t>(rpp) * 3 + 11;
  const size_t count2 = rpp + 5;
  RowBatch rows2;
  FML_ASSERT_OK(t.ReadRows(&pool, start2, count2, &rows2));
  ColumnStrips block;
  block.Shape(/*height=*/100, count2 + count, 4, 1, start2);
  const PageCursor cursor(&t, &pool);
  FML_ASSERT_OK(cursor.ReadStrips(start2, count2, /*dst_row=*/0, &block));
  FML_ASSERT_OK(cursor.ReadStrips(start, count, /*dst_row=*/count2, &block));
  for (size_t row = 0; row < count2 + count; ++row) {
    const RowBatch& want = row < count2 ? rows2 : rows;
    const size_t wr = row < count2 ? row : row - count2;
    ASSERT_EQ(block.KeysOf(row)[0], want.KeysOf(wr)[0]) << row;
    for (size_t c = 0; c < 4; ++c) {
      ASSERT_EQ(block.Col(row / 100, c)[row % 100], want.feats(wr, c))
          << row << "," << c;
    }
  }
}

TEST(ColumnStripsTest, StripTallerThanReadYieldsOnePartialStrip) {
  // strip_rows larger than the read: one strip, short, column stride
  // still the full strip height (fixed layout for the kernels).
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 600);
  BufferPool pool(64);
  ColumnStrips strips;
  FML_ASSERT_OK(t.ReadStrips(&pool, 17, 40, /*strip_rows=*/256, &strips));
  EXPECT_EQ(strips.num_strips, 1u);
  EXPECT_EQ(strips.RowsInStrip(0), 40u);
  EXPECT_EQ(strips.data.size(), 1u * 4u * 256u);
  for (size_t r = 0; r < 40; ++r) {
    const int64_t row = 17 + static_cast<int64_t>(r);
    ASSERT_EQ(strips.KeysOf(r)[0], row);
    ASSERT_DOUBLE_EQ(strips.Col(0, 0)[r], row * 0.25);
    ASSERT_DOUBLE_EQ(strips.Col(0, 2)[r], -static_cast<double>(row));
  }
}

TEST(ColumnStripsTest, ShortStripReadCostsExactlyTheRowRead) {
  // A read shorter than one strip — the mini-batch epoch shape (a sampled
  // batch or a tail morsel smaller than kDefaultStripRows) — must walk
  // exactly the pages the row decode walks: the strip plane never pays
  // extra I/O for a partial strip, and never silently skips the batched
  // decode either (the strip comes back populated).
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 600);
  const size_t rpp = t.schema().RowsPerPage();
  // Both a within-page read and one crossing a page boundary.
  const int64_t starts[] = {5, static_cast<int64_t>(rpp) - 3};
  for (const int64_t start : starts) {
    BufferPool row_pool(64);
    const IoStats row_before = GlobalIo();
    RowBatch rows;
    FML_ASSERT_OK(t.ReadRows(&row_pool, start, 40, &rows));
    const IoStats row_delta = GlobalIo() - row_before;

    BufferPool strip_pool(64);
    const IoStats strip_before = GlobalIo();
    ColumnStrips strips;
    FML_ASSERT_OK(t.ReadStrips(&strip_pool, start, 40, /*strip_rows=*/256,
                               &strips));
    const IoStats strip_delta = GlobalIo() - strip_before;
    EXPECT_EQ(strip_delta.pages_read, row_delta.pages_read) << start;
    EXPECT_EQ(strip_delta.pool_misses, row_delta.pool_misses) << start;
    EXPECT_EQ(strip_delta.pool_hits, row_delta.pool_hits) << start;
    ASSERT_EQ(strips.num_strips, 1u) << start;
    ASSERT_EQ(strips.RowsInStrip(0), 40u) << start;
    for (size_t r = 0; r < 40; ++r) {
      for (size_t c = 0; c < 4; ++c) {
        ASSERT_EQ(strips.Col(0, c)[r],
                  rows.feats(static_cast<size_t>(r), c))
            << start;
      }
    }
  }
}

TEST(ColumnStripsTest, StripReadOutOfBoundsFails) {
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 100);
  BufferPool pool(8);
  ColumnStrips strips;
  EXPECT_EQ(t.ReadStrips(&pool, 99, 2, 64, &strips).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(t.ReadStrips(&pool, -1, 1, 64, &strips).code(),
            StatusCode::kOutOfRange);
}

TEST(ColumnStripsTest, StripScanDemandReadsMatchRowScanWithPrefetchOff) {
  // The I/O contract of the batched decode: NextStrips walks exactly the
  // pages Next walks — same demand reads, same misses, zero prefetch — so
  // the IoStats goldens cannot tell the decode targets apart.
  TempDir dir;
  Table t = MakeWideTable(dir.str() + "/t.fml", 4000);
  BufferPool row_pool(64);
  const IoStats row_delta = ScanAll(t, &row_pool, 128, nullptr, 0);

  BufferPool strip_pool(64);
  TableScanner scanner(&t, &strip_pool, 128);
  const IoStats before = GlobalIo();
  ColumnStrips strips;
  int64_t seen = 0;
  while (scanner.NextStrips(/*strip_rows=*/100, &strips)) {
    seen += static_cast<int64_t>(strips.num_rows);
  }
  EXPECT_TRUE(scanner.status().ok()) << scanner.status().ToString();
  EXPECT_EQ(seen, t.num_rows());
  const IoStats strip_delta = GlobalIo() - before;
  EXPECT_EQ(strip_delta.pages_read, row_delta.pages_read);
  EXPECT_EQ(strip_delta.pool_misses, row_delta.pool_misses);
  EXPECT_EQ(strip_delta.pool_hits, row_delta.pool_hits);
  EXPECT_EQ(strip_delta.prefetch_reads, 0u);
  EXPECT_EQ(strip_delta.demand_reads(), row_delta.demand_reads());
}

// ------------------------------------------------------------ page runs
//
// Runs of consecutive pages move in one system call each (PagedFile's
// ReadPages / AppendPages, BufferPool::GetPages, PageCursor's walk, the
// Table stage); every count must equal the page-by-page engine's.

namespace {

/// A file of `pages` pages; page p holds p in its first 8 bytes and the
/// byte p % 251 after that.
std::unique_ptr<PagedFile> MakeNumberedFile(const std::string& path,
                                            uint64_t pages) {
  auto file = std::move(PagedFile::Create(path)).value();
  std::vector<char> buf(kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    std::memset(buf.data(), static_cast<int>(p % 251), kPageSize);
    std::memcpy(buf.data(), &p, sizeof(p));
    FML_CHECK(file->AppendPage(buf.data()).ok());
  }
  return file;
}

bool PageIs(const char* page, uint64_t p) {
  uint64_t got = 0;
  std::memcpy(&got, page, sizeof(got));
  return got == p &&
         page[kPageSize - 1] == static_cast<char>(p % 251);
}

}  // namespace

TEST(PageRunTest, ReadPagesAndAppendPagesMoveRunsAndCountEveryPage) {
  TempDir dir;
  auto file = std::move(PagedFile::Create(dir.str() + "/f.pg")).value();
  std::vector<char> run(5 * kPageSize);
  for (uint64_t p = 0; p < 5; ++p) {
    std::memset(run.data() + p * kPageSize, static_cast<int>(p % 251),
                kPageSize);
    std::memcpy(run.data() + p * kPageSize, &p, sizeof(p));
  }
  const IoStats before = GlobalIo();
  auto first = file->AppendPages(run.data(), 5);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), 0u);
  EXPECT_EQ(file->num_pages(), 5u);
  std::vector<char> a(kPageSize), b(kPageSize), c(kPageSize);
  char* bufs[] = {a.data(), b.data(), c.data()};
  FML_ASSERT_OK(file->ReadPages(1, 3, bufs));
  EXPECT_TRUE(PageIs(a.data(), 1));
  EXPECT_TRUE(PageIs(b.data(), 2));
  EXPECT_TRUE(PageIs(c.data(), 3));
  const IoStats delta = GlobalIo() - before;
  EXPECT_EQ(delta.pages_written, 5u);
  EXPECT_EQ(delta.pages_read, 3u);
  EXPECT_EQ(file->ReadPages(3, 3, bufs).code(), StatusCode::kOutOfRange);
}

TEST(PageRunTest, RunLookupsMatchPageByPageLookups) {
  // GetPages(first, n) must make exactly the LRU moves and counter
  // updates of n single-page lookups: after the same seeded random
  // sequence, a run-driven pool and a page-by-page pool agree on hits,
  // misses and physical reads, and then on the hit/miss pattern of a
  // follow-up sequence (which only an identical LRU order guarantees).
  TempDir dir;
  constexpr uint64_t kPages = 100;
  auto file = MakeNumberedFile(dir.str() + "/f.pg", kPages);
  for (const size_t capacity : {1, 2, 3, 7, 64}) {
    BufferPool by_run(capacity);
    BufferPool by_page(capacity);
    std::mt19937_64 rng(1000 + capacity);
    IoStats run_io, page_io;
    for (int req = 0; req < 200; ++req) {
      const uint64_t start = rng() % kPages;
      const uint64_t len = std::min<uint64_t>(1 + rng() % 40, kPages - start);
      IoStats before = GlobalIo();
      for (uint64_t p = start; p < start + len;) {
        const uint64_t n =
            std::min<uint64_t>(by_run.max_run_pages(), start + len - p);
        const char* pages[kMaxRunPages];
        FML_ASSERT_OK(by_run.GetPages(file.get(), p, n, pages));
        for (uint64_t i = 0; i < n; ++i) {
          ASSERT_TRUE(PageIs(pages[i], p + i)) << capacity << " " << p + i;
        }
        p += n;
      }
      run_io += GlobalIo() - before;
      before = GlobalIo();
      for (uint64_t p = start; p < start + len; ++p) {
        auto page = by_page.GetPage(file.get(), p);
        ASSERT_TRUE(page.ok());
        ASSERT_TRUE(PageIs(page.value(), p));
      }
      page_io += GlobalIo() - before;
    }
    EXPECT_EQ(run_io.pool_hits, page_io.pool_hits) << capacity;
    EXPECT_EQ(run_io.pool_misses, page_io.pool_misses) << capacity;
    EXPECT_EQ(run_io.pages_read, page_io.pages_read) << capacity;
    EXPECT_EQ(run_io.pages_read, run_io.pool_misses) << capacity;
    EXPECT_EQ(by_run.cached_pages(), by_page.cached_pages()) << capacity;

    std::vector<bool> run_hits, page_hits;
    for (int req = 0; req < 300; ++req) {
      const uint64_t p = rng() % kPages;
      for (auto [pool, hits] : {std::pair{&by_run, &run_hits},
                                std::pair{&by_page, &page_hits}}) {
        const uint64_t before = GlobalIo().pool_hits;
        ASSERT_TRUE(pool->GetPage(file.get(), p).ok());
        hits->push_back(GlobalIo().pool_hits > before);
      }
    }
    EXPECT_EQ(run_hits, page_hits) << capacity;
  }
}

TEST(PageRunTest, ShortMiddlePageIsACorruptPage) {
  // Every data page but the last is full. A middle page whose row count
  // is short must fail the read with a "corrupt page" Status naming the
  // file, whether the walk resolves it inside a run or on its own.
  TempDir dir;
  const std::string path = dir.str() + "/t.fml";
  const size_t rpp = Schema{1, 4}.RowsPerPage();
  MakeWideTable(path, static_cast<int64_t>(rpp * 6));
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint64_t short_count = rpp - 5;
    ASSERT_EQ(std::fseek(f, 3 * static_cast<long>(kPageSize), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&short_count, sizeof(short_count), 1, f), 1u);
    std::fclose(f);
  }
  auto t = std::move(Table::Open(path)).value();
  for (const size_t capacity : {64, 2}) {  // runs of 6 pages, then of 1
    BufferPool pool(capacity);
    RowBatch batch;
    const Status st = t.ReadRows(&pool, 0, rpp * 6, &batch);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << capacity;
    EXPECT_NE(st.ToString().find("corrupt page"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find(path), std::string::npos) << st.ToString();
    ColumnStrips strips;
    EXPECT_EQ(t.ReadStrips(&pool, 0, rpp * 6, 256, &strips).code(),
              StatusCode::kInternal)
        << capacity;
    // Rows before the short page's end are still readable.
    FML_EXPECT_OK(t.ReadRows(&pool, 0, rpp * 2 + rpp - 5, &batch));
  }
}

TEST(PageRunTest, StagedAppendsReadBackWithUnchangedPageCounts) {
  // 33 and 65 full data pages plus a partial tail: one full stage and a
  // remainder, two full stages and a remainder. Rows read back intact,
  // pages_written is the page-by-page count (header append + data pages
  // + header rewrite), Finish frees the stage, and the tail page's unused
  // slots are zero (they must not carry rows of an earlier flush).
  const Schema schema{1, 4};
  const size_t rpp = schema.RowsPerPage();
  for (const size_t full_pages : {33, 65}) {
    TempDir dir;
    const std::string path = dir.str() + "/t.fml";
    const int64_t rows = static_cast<int64_t>(full_pages * rpp + rpp / 2);
    const IoStats before = GlobalIo();
    auto t = std::move(Table::Create(path, schema)).value();
    EXPECT_EQ(t.stage_bytes(), kMaxRunPages * kPageSize);
    for (int64_t i = 0; i < rows; ++i) {
      const double feats[] = {static_cast<double>(i) * 0.25,
                              static_cast<double>(i % 101),
                              static_cast<double>(-i),
                              static_cast<double>(i * i % 997)};
      FML_ASSERT_OK(t.Append(&i, feats));
    }
    FML_ASSERT_OK(t.Finish());
    EXPECT_EQ(t.stage_bytes(), 0u);
    EXPECT_EQ(t.num_data_pages(), full_pages + 1);
    EXPECT_EQ((GlobalIo() - before).pages_written, full_pages + 3);

    auto reopened = std::move(Table::Open(path)).value();
    EXPECT_EQ(reopened.num_rows(), rows);
    BufferPool pool(16);
    EXPECT_EQ(ScanAll(reopened, &pool, 1000, nullptr, 0).pages_read,
              full_pages + 1);

    std::vector<char> tail(kPageSize);
    FML_ASSERT_OK(reopened.file()->ReadPage(full_pages + 1, tail.data()));
    const size_t used = 8 + (rpp / 2) * schema.RowBytes();
    for (size_t b = used; b < kPageSize; ++b) {
      ASSERT_EQ(tail[b], 0) << full_pages << " byte " << b;
    }
  }
}

TEST(PageRunTest, TruncatedFileReadIsAnIoErrorNamingFileAndPages) {
  // A table file cut short after Table::Open: the page count from Open
  // still admits the read, the positioned read comes back short, and the
  // walk returns IoError naming the file and the page range — for a run
  // and for a single page.
  TempDir dir;
  const std::string path = dir.str() + "/t.fml";
  const size_t rpp = Schema{1, 4}.RowsPerPage();
  MakeWideTable(path, static_cast<int64_t>(rpp * 10));
  auto t = std::move(Table::Open(path)).value();
  ASSERT_EQ(::truncate(path.c_str(), 4 * kPageSize + 100), 0);
  for (const size_t capacity : {64, 2}) {
    BufferPool pool(capacity);
    TableScanner scanner(&t, &pool, 1000);
    RowBatch batch;
    while (scanner.Next(&batch)) {
    }
    const Status& st = scanner.status();
    EXPECT_EQ(st.code(), StatusCode::kIoError) << capacity;
    EXPECT_NE(st.ToString().find(path), std::string::npos) << st.ToString();
    EXPECT_NE(st.ToString().find("pages ["), std::string::npos)
        << st.ToString();
  }
  std::vector<char> buf(kPageSize);
  const Status st = t.file()->ReadPage(7, buf.data());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("pages [7, 8)"), std::string::npos)
      << st.ToString();
}

/// Appends 2 pages, then 2 more under a file-size limit that cuts the
/// second run's pwrite short; 0 when that append is an IoError naming the
/// file and pages and the file keeps its 2 pages. Sets a process limit:
/// run it in a child.
int AppendPastFileSizeLimit(const std::string& path) {
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit lim;
  lim.rlim_cur = lim.rlim_max = 3 * kPageSize + 100;
  if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) return 2;
  auto file = std::move(PagedFile::Create(path)).value();
  std::vector<char> run(2 * kPageSize, 'w');
  if (!file->AppendPages(run.data(), 2).ok()) return 3;
  const Status st = file->AppendPages(run.data(), 2).status();
  const bool named = st.ToString().find("pages [2, 4)") != std::string::npos &&
                     st.ToString().find(path) != std::string::npos;
  return st.code() == StatusCode::kIoError && named &&
                 file->num_pages() == 2
             ? 0
             : 1;
}

TEST(PageRunTest, ShortWriteIsAnIoError) {
  // A file-size limit cuts a run's pwrite short: the append returns
  // IoError instead of crashing. The limit is set in a child process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TempDir dir;
  const std::string path = dir.str() + "/f.pg";
  EXPECT_EXIT(std::exit(AppendPastFileSizeLimit(path)),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace factorml::storage
