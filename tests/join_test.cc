#include <map>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "join/assemble.h"
#include "join/attribute_view.h"
#include "join/batch_plan.h"
#include "join/fk_index.h"
#include "join/join_cursor.h"
#include "join/materialize.h"
#include "join/normalized_relations.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace factorml::join {
namespace {

using factorml::testing::TempDir;
using storage::BufferPool;
using storage::RowBatch;
using storage::Schema;
using storage::Table;

/// Builds a small normalized pair: R with `n_r` tuples and dR=2 features
/// (rid, rid*10), S clustered by FK with `counts[rid]` tuples per rid and
/// dS=1 feature (the global row id); target column optional.
struct SmallData {
  SmallData(const std::string& dir, const std::vector<int64_t>& counts,
            bool with_target) {
    const int64_t n_r = static_cast<int64_t>(counts.size());
    auto r = std::move(Table::Create(dir + "/r.fml", Schema{1, 2})).value();
    for (int64_t rid = 0; rid < n_r; ++rid) {
      const double feats[] = {static_cast<double>(rid),
                              static_cast<double>(rid) * 10.0};
      FML_CHECK_OK(r.Append(&rid, feats));
    }
    FML_CHECK_OK(r.Finish());

    const size_t s_feats = with_target ? 2 : 1;
    auto s = std::move(Table::Create(dir + "/s.fml", Schema{2, s_feats}))
                 .value();
    int64_t sid = 0;
    for (int64_t rid = 0; rid < n_r; ++rid) {
      for (int64_t c = 0; c < counts[rid]; ++c) {
        const int64_t keys[] = {sid, rid};
        double feats[2];
        if (with_target) {
          feats[0] = 100.0 + static_cast<double>(sid);  // y
          feats[1] = static_cast<double>(sid);          // xS
        } else {
          feats[0] = static_cast<double>(sid);
        }
        FML_CHECK_OK(s.Append(keys, feats));
        ++sid;
      }
    }
    FML_CHECK_OK(s.Finish());

    std::vector<Table> attrs;
    attrs.push_back(std::move(r));
    rel = std::make_unique<NormalizedRelations>(std::move(s),
                                                std::move(attrs), with_target);
    FML_CHECK_OK(rel->BuildIndex(&pool));
  }

  BufferPool pool{256};
  std::unique_ptr<NormalizedRelations> rel;
};

// --------------------------------------------------------------- FkIndex

TEST(FkIndexTest, BuildsRangesForClusteredTable) {
  TempDir dir;
  SmallData data(dir.str(), {3, 0, 2, 1}, false);
  const FkIndex& idx = data.rel->fk1_index;
  EXPECT_EQ(idx.num_rids(), 4);
  EXPECT_EQ(idx.CountOf(0), 3);
  EXPECT_EQ(idx.StartOf(0), 0);
  EXPECT_EQ(idx.CountOf(1), 0);
  EXPECT_EQ(idx.CountOf(2), 2);
  EXPECT_EQ(idx.StartOf(2), 3);
  EXPECT_EQ(idx.CountOf(3), 1);
  EXPECT_EQ(idx.StartOf(3), 5);
  EXPECT_EQ(idx.total_rows(), 6);
}

TEST(FkIndexTest, RejectsUnclusteredTable) {
  TempDir dir;
  auto s = std::move(Table::Create(dir.str() + "/s.fml", Schema{2, 1}))
               .value();
  // FK sequence 1, 0 is not sorted.
  const int64_t k0[] = {0, 1};
  const int64_t k1[] = {1, 0};
  const double f = 0.0;
  FML_ASSERT_OK(s.Append(k0, &f));
  FML_ASSERT_OK(s.Append(k1, &f));
  FML_ASSERT_OK(s.Finish());
  BufferPool pool(16);
  FkIndex idx;
  EXPECT_EQ(idx.Build(s, &pool, 1, 2).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FkIndexTest, RejectsDanglingForeignKey) {
  TempDir dir;
  auto s = std::move(Table::Create(dir.str() + "/s.fml", Schema{2, 1}))
               .value();
  const int64_t keys[] = {0, 5};  // fk 5, but only 3 rids exist
  const double f = 0.0;
  FML_ASSERT_OK(s.Append(keys, &f));
  FML_ASSERT_OK(s.Finish());
  BufferPool pool(16);
  FkIndex idx;
  EXPECT_EQ(idx.Build(s, &pool, 1, 3).code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------ AttributeTableView

TEST(AttributeViewTest, LoadsDenseRids) {
  TempDir dir;
  SmallData data(dir.str(), {1, 1}, false);
  AttributeTableView view;
  FML_ASSERT_OK(view.Load(data.rel->attrs[0], &data.pool));
  EXPECT_EQ(view.num_rows(), 2);
  EXPECT_EQ(view.num_feats(), 2u);
  EXPECT_DOUBLE_EQ(view.FeaturesOf(1)[1], 10.0);
}

TEST(AttributeViewTest, RejectsNonDenseRids) {
  TempDir dir;
  auto r = std::move(Table::Create(dir.str() + "/r.fml", Schema{1, 1}))
               .value();
  const int64_t rid = 5;  // not starting at 0
  const double f = 0.0;
  FML_ASSERT_OK(r.Append(&rid, &f));
  FML_ASSERT_OK(r.Finish());
  BufferPool pool(16);
  AttributeTableView view;
  EXPECT_EQ(view.Load(r, &pool).code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ JoinCursor

TEST(JoinCursorTest, NaturalOrderCoversAllRowsGrouped) {
  TempDir dir;
  SmallData data(dir.str(), {2, 3, 0, 1, 4}, false);
  JoinCursor cursor(data.rel.get(), &data.pool, 4);
  JoinBatch batch;
  int64_t rows_seen = 0;
  int64_t expected_next_sid = 0;
  while (cursor.Next(&batch)) {
    for (const auto& g : batch.groups) {
      EXPECT_EQ(static_cast<int64_t>(g.count),
                data.rel->fk1_index.CountOf(g.rid));
      for (size_t r = g.offset; r < g.offset + g.count; ++r) {
        // Every row in the group carries the group's fk.
        EXPECT_EQ(batch.s_rows.KeysOf(r)[1], g.rid);
        EXPECT_EQ(batch.s_rows.KeysOf(r)[0], expected_next_sid++);
      }
    }
    rows_seen += static_cast<int64_t>(batch.s_rows.num_rows);
  }
  FML_EXPECT_OK(cursor.status());
  EXPECT_EQ(rows_seen, 10);
}

TEST(JoinCursorTest, PermutedOrderVisitsEveryRowOnce) {
  TempDir dir;
  SmallData data(dir.str(), {2, 3, 1, 4, 2}, false);
  JoinCursor cursor(data.rel.get(), &data.pool, 3);
  cursor.SetRidOrder({4, 2, 0, 3, 1});
  JoinBatch batch;
  std::map<int64_t, int> seen;
  while (cursor.Next(&batch)) {
    for (size_t r = 0; r < batch.s_rows.num_rows; ++r) {
      seen[batch.s_rows.KeysOf(r)[0]]++;
    }
  }
  FML_EXPECT_OK(cursor.status());
  EXPECT_EQ(seen.size(), 12u);
  for (const auto& [sid, n] : seen) EXPECT_EQ(n, 1) << "sid " << sid;
}

TEST(JoinCursorTest, ResetReplaysStream) {
  TempDir dir;
  SmallData data(dir.str(), {3, 3}, false);
  JoinCursor cursor(data.rel.get(), &data.pool, 2);
  JoinBatch batch;
  int64_t first = 0, second = 0;
  while (cursor.Next(&batch)) first += batch.s_rows.num_rows;
  cursor.Reset();
  while (cursor.Next(&batch)) second += batch.s_rows.num_rows;
  EXPECT_EQ(first, 6);
  EXPECT_EQ(second, 6);
}

TEST(JoinCursorTest, OversizedGroupStaysWhole) {
  TempDir dir;
  SmallData data(dir.str(), {10, 1}, false);
  JoinCursor cursor(data.rel.get(), &data.pool, 4);
  JoinBatch batch;
  ASSERT_TRUE(cursor.Next(&batch));
  // First batch is the entire size-10 group (groups are never split).
  EXPECT_EQ(batch.s_rows.num_rows, 10u);
  ASSERT_EQ(batch.groups.size(), 1u);
  EXPECT_EQ(batch.groups[0].count, 10u);
}

// ----------------------------------------------------------- Materialize

TEST(MaterializeTest, JoinedRowsMatchManualJoin) {
  TempDir dir;
  SmallData data(dir.str(), {2, 1, 3}, true);
  auto t_or = MaterializeJoin(*data.rel, &data.pool, dir.str() + "/t.fml");
  ASSERT_TRUE(t_or.ok()) << t_or.status().ToString();
  Table& t = t_or.value();
  EXPECT_EQ(t.num_rows(), 6);
  // T schema: 1 key (sid), feats = [y, xS, xR0, xR1].
  EXPECT_EQ(t.schema().num_keys, 1u);
  EXPECT_EQ(t.schema().num_feats, 4u);

  AttributeTableView view;
  FML_ASSERT_OK(view.Load(data.rel->attrs[0], &data.pool));
  RowBatch batch;
  FML_ASSERT_OK(t.ReadRows(&data.pool, 0, 6, &batch));
  storage::RowBatch s_rows;
  FML_ASSERT_OK(data.rel->s.ReadRows(&data.pool, 0, 6, &s_rows));
  for (size_t r = 0; r < 6; ++r) {
    const int64_t rid = s_rows.KeysOf(r)[1];
    EXPECT_EQ(batch.KeysOf(r)[0], s_rows.KeysOf(r)[0]);
    EXPECT_DOUBLE_EQ(batch.feats(r, 0), s_rows.feats(r, 0));  // y
    EXPECT_DOUBLE_EQ(batch.feats(r, 1), s_rows.feats(r, 1));  // xS
    EXPECT_DOUBLE_EQ(batch.feats(r, 2), static_cast<double>(rid));
    EXPECT_DOUBLE_EQ(batch.feats(r, 3), static_cast<double>(rid) * 10.0);
  }
}

TEST(MaterializeTest, AssembleJoinedRowMatchesMaterialized) {
  TempDir dir;
  SmallData data(dir.str(), {1, 2, 2}, true);
  auto t = std::move(MaterializeJoin(*data.rel, &data.pool,
                                     dir.str() + "/t.fml"))
               .value();
  std::vector<AttributeTableView> views(1);
  FML_ASSERT_OK(views[0].Load(data.rel->attrs[0], &data.pool));

  JoinCursor cursor(data.rel.get(), &data.pool, 3);
  JoinBatch jb;
  std::vector<double> assembled(data.rel->total_dims());
  RowBatch t_rows;
  while (cursor.Next(&jb)) {
    for (size_t r = 0; r < jb.s_rows.num_rows; ++r) {
      AssembleJoinedRow(*data.rel, jb.s_rows, r, views, assembled.data());
      const int64_t row = jb.s_rows.start_row + static_cast<int64_t>(r);
      FML_ASSERT_OK(t.ReadRows(&data.pool, row, 1, &t_rows));
      // Materialized layout: [y | joined features].
      for (size_t j = 0; j < assembled.size(); ++j) {
        EXPECT_DOUBLE_EQ(assembled[j], t_rows.feats(0, j + 1));
      }
    }
  }
  FML_EXPECT_OK(cursor.status());
}

TEST(MaterializeTest, AssembleJoinedStripsMatchesMaterialized) {
  // Every element of a batch lands at its strip column and row, with the
  // attribute views (the S strategy's joined rows, in T's layout) and
  // without them (the F strategy's S-slice transpose): strip height 2
  // under 3-row batches, full and short strips alike, and height 256 with
  // batches across its edges.
  struct Case {
    std::vector<int64_t> counts;  // S rows per R1 rid
    size_t batch_rows;
    size_t strip_rows;
  };
  std::vector<Case> cases = {{{1, 2, 2}, 3, 2}};
  for (const size_t rows : {1, 255, 256, 257, 1001, 1024}) {
    cases.push_back({std::vector<int64_t>(1024, 1), rows, 256});
  }
  const std::vector<AttributeTableView> no_views;
  storage::ColumnStrips strips;  // reused across calls, as the drivers do
  for (const Case& c : cases) {
    TempDir dir;
    SmallData data(dir.str(), c.counts, true);
    auto t = std::move(MaterializeJoin(*data.rel, &data.pool,
                                       dir.str() + "/t.fml"))
                 .value();
    std::vector<AttributeTableView> views(1);
    FML_ASSERT_OK(views[0].Load(data.rel->attrs[0], &data.pool));
    // Strip layout = materialized layout: [y | xS | xR], or [y | xS]
    // without views.
    for (const bool joined : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "batch=" << c.batch_rows << " strip=" << c.strip_rows
                   << " joined=" << joined);
      const size_t cols = joined ? data.rel->total_dims() + 1 : 2;
      JoinCursor cursor(data.rel.get(), &data.pool, c.batch_rows);
      JoinBatch jb;
      RowBatch t_rows;
      int64_t seen = 0;
      while (cursor.Next(&jb)) {
        const size_t n = jb.s_rows.num_rows;
        if (seen == 0) {
          ASSERT_EQ(n, std::min<size_t>(c.batch_rows, t.num_rows()));
        }
        AssembleJoinedStrips(*data.rel, jb.s_rows, joined ? views : no_views,
                             c.strip_rows, &strips);
        const size_t num_strips = (n + c.strip_rows - 1) / c.strip_rows;
        ASSERT_EQ(strips.strip_rows, c.strip_rows);
        ASSERT_EQ(strips.num_strips, num_strips);
        ASSERT_EQ(strips.num_rows, n);
        ASSERT_EQ(strips.num_cols, cols);
        ASSERT_EQ(strips.num_keys, 0u);
        ASSERT_TRUE(strips.keys.empty());
        ASSERT_EQ(strips.start_row, jb.s_rows.start_row);
        ASSERT_EQ(strips.data.size(), num_strips * cols * c.strip_rows);
        FML_ASSERT_OK(t.ReadRows(&data.pool, jb.s_rows.start_row, n,
                                 &t_rows));
        for (size_t r = 0; r < n; ++r) {
          for (size_t j = 0; j < cols; ++j) {
            ASSERT_EQ(strips.Col(r / c.strip_rows, j)[r % c.strip_rows],
                      t_rows.feats(r, j))
                << "row " << jb.s_rows.start_row + static_cast<int64_t>(r)
                << " col " << j;
          }
        }
        seen += static_cast<int64_t>(n);
      }
      FML_EXPECT_OK(cursor.status());
      EXPECT_EQ(seen, t.num_rows());
    }
  }
}

// ----------------------------------------------------------- BatchPlan

TEST(BatchPlanTest, NaturalOrderIsSingleRangePerBatch) {
  TempDir dir;
  SmallData data(dir.str(), {2, 2, 2, 2, 2}, false);
  const auto plan = PlanGroupBatches(data.rel->fk1_index, 4, nullptr);
  ASSERT_EQ(plan.size(), 3u);
  for (const auto& b : plan) {
    EXPECT_EQ(b.ranges.size(), 1u);
  }
  EXPECT_EQ(plan[0].total_rows, 4);
  EXPECT_EQ(plan[2].total_rows, 2);
}

TEST(BatchPlanTest, PlanMatchesCursorBatchBoundaries) {
  TempDir dir;
  SmallData data(dir.str(), {3, 1, 4, 2, 5, 1}, false);
  const auto plan = PlanGroupBatches(data.rel->fk1_index, 5, nullptr);
  JoinCursor cursor(data.rel.get(), &data.pool, 5);
  JoinBatch batch;
  size_t i = 0;
  while (cursor.Next(&batch)) {
    if (batch.s_rows.num_rows == 0) continue;
    ASSERT_LT(i, plan.size());
    EXPECT_EQ(static_cast<int64_t>(batch.s_rows.num_rows),
              plan[i].total_rows);
    EXPECT_EQ(batch.s_rows.start_row, plan[i].ranges.front().start);
    ++i;
  }
  EXPECT_EQ(i, plan.size());
}

TEST(BatchPlanTest, PermutedPlanCoversAllRows) {
  TempDir dir;
  SmallData data(dir.str(), {2, 3, 1, 4}, false);
  const auto order = PermutedRids(4, /*seed=*/99, /*epoch=*/0);
  const auto plan = PlanGroupBatches(data.rel->fk1_index, 3, &order);
  int64_t total = 0;
  for (const auto& b : plan) {
    for (const auto& range : b.ranges) total += range.count;
  }
  EXPECT_EQ(total, 10);
}

TEST(BatchPlanTest, PermutedRidsDeterministicPerEpoch) {
  const auto a = PermutedRids(100, 7, 3);
  const auto b = PermutedRids(100, 7, 3);
  const auto c = PermutedRids(100, 7, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------- NormalizedRelations

TEST(NormalizedRelationsTest, ValidateCatchesBadKeyCount) {
  TempDir dir;
  // S with only one key column cannot reference an attribute table.
  auto s = std::move(Table::Create(dir.str() + "/s.fml", Schema{1, 1}))
               .value();
  FML_ASSERT_OK(s.Finish());
  auto r = std::move(Table::Create(dir.str() + "/r.fml", Schema{1, 1}))
               .value();
  const int64_t rid = 0;
  const double f = 0.0;
  FML_ASSERT_OK(r.Append(&rid, &f));
  FML_ASSERT_OK(r.Finish());
  std::vector<Table> attrs;
  attrs.push_back(std::move(r));
  NormalizedRelations rel(std::move(s), std::move(attrs), false);
  EXPECT_FALSE(rel.Validate().ok());
}

TEST(NormalizedRelationsTest, DimsAndOffsets) {
  TempDir dir;
  SmallData data(dir.str(), {1, 1}, true);
  EXPECT_EQ(data.rel->ds(), 1u);       // target excluded
  EXPECT_EQ(data.rel->dr(0), 2u);
  EXPECT_EQ(data.rel->total_dims(), 3u);
  EXPECT_EQ(data.rel->FeatureOffset(0), 0u);
  EXPECT_EQ(data.rel->FeatureOffset(1), 1u);
  EXPECT_EQ(data.rel->FkKeyIndex(0), 1u);
}

}  // namespace
}  // namespace factorml::join
