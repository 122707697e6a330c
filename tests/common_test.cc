#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/pipeline/strategy_options.h"
#include "la/kernels.h"
#include "common/opcount.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "gtest/gtest.h"

namespace factorml {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad dims");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailingHelper() { return Status::IoError("disk gone"); }

Status UsesReturnIfError() {
  FML_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kIoError);
}

Result<int> GivesSeven() { return 7; }

Status UsesAssignOrReturn(int* out) {
  FML_ASSIGN_OR_RETURN(int v, GivesSeven());
  *out = v;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnAssigns) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(&out).ok());
  EXPECT_EQ(out, 7);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, SaveRestoreStateResumesBitIdentically) {
  // The checkpoint seam: capture mid-stream (with the Box-Muller cache
  // half-full) and replay into a generator seeded differently — the
  // restored stream must continue bit-for-bit where the original left
  // off, gaussians included.
  Rng a(123);
  for (int i = 0; i < 7; ++i) a.NextGaussian();  // odd count: cache is hot
  double st[Rng::kStateDoubles];
  a.SaveState(st);
  Rng b(999);
  b.RestoreState(st);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.NextGaussian(), b.NextGaussian()) << "draw " << i;
    EXPECT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit over 1000 draws
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  // Practically never identity.
  bool identity = true;
  for (int i = 0; i < 100; ++i) identity = identity && v[i] == i;
  EXPECT_FALSE(identity);
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesTypedValues) {
  const char* argv[] = {"prog", "--n=42",    "--rate=0.5", "--name=abc",
                        "--on", "--off=false", "positional"};
  ArgParser args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(args.GetString("name", ""), "abc");
  EXPECT_TRUE(args.GetBool("on", false));
  EXPECT_FALSE(args.GetBool("off", true));
  EXPECT_FALSE(args.Has("positional"));
}

TEST(FlagsTest, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("n", 5), 5);
  EXPECT_EQ(args.GetString("s", "dflt"), "dflt");
}

TEST(FlagsTest, TraceFlagsValidValuesPassThrough) {
  const std::string good = ::testing::TempDir() + "/flags_trace_probe.json";
  const std::string trace_arg = "--trace=" + good;
  const char* argv[] = {"prog", trace_arg.c_str(), "--trace-buffer-kb=64"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetTracePath(), good);
  EXPECT_EQ(args.GetTraceBufferKb(), 64);
  std::remove(good.c_str());
}

TEST(FlagsTest, TraceFlagsDefaults) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetTracePath(), "");
  EXPECT_EQ(args.GetTraceBufferKb(), 1024);
}

// The trace flags fail fast (exit 2 with a usage message) on an
// unwritable path or a bad ring size — before the traced run burns its
// wall time, not at the flush.
TEST(FlagsDeathTest, UnwritableTracePathExits2) {
  const char* argv[] = {"prog",
                        "--trace=/nonexistent_dir_xyz_42/trace.json"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetTracePath(), ::testing::ExitedWithCode(2),
              "invalid --trace=");
}

TEST(FlagsDeathTest, TraceBufferKbBelowOneExits2) {
  const char* argv[] = {"prog", "--trace-buffer-kb=0"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetTraceBufferKb(), ::testing::ExitedWithCode(2),
              "invalid --trace-buffer-kb");
}

TEST(FlagsTest, KernelsValidValuesAndDefault) {
  const char* argv[] = {"prog", "--kernels=simd"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetKernels(), "simd");
  const char* argv2[] = {"prog", "--kernels=scalar"};
  ArgParser args2(2, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetKernels(), "scalar");
  const char* argv3[] = {"prog"};
  ArgParser args3(1, const_cast<char**>(argv3));
  EXPECT_EQ(args3.GetKernels(), "scalar");
}

// Unknown kernel backends fail fast (exit 2, listing the choices) before
// a long training run silently falls back to the wrong plane.
TEST(FlagsDeathTest, UnknownKernelsValueExits2) {
  const char* argv[] = {"prog", "--kernels=avx512"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetKernels(), ::testing::ExitedWithCode(2),
              "invalid --kernels=avx512");
}

/// Saves the ambient FACTORML_KERNELS_BACKEND (CI's forced-portable job
/// exports it job-wide) and restores it on scope exit.
struct SavedBackendEnv {
  SavedBackendEnv() {
    const char* prev = std::getenv("FACTORML_KERNELS_BACKEND");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
  }
  ~SavedBackendEnv() {
    if (had_prev_) {
      setenv("FACTORML_KERNELS_BACKEND", prev_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("FACTORML_KERNELS_BACKEND");
    }
  }
  std::string prev_;
  bool had_prev_ = false;
};

TEST(KernelsBackendDeathTest, UnknownBackendEnvExits2) {
  SavedBackendEnv saved;
  setenv("FACTORML_KERNELS_BACKEND", "avx512", /*overwrite=*/1);
  EXPECT_EXIT(la::SelectKernels(la::KernelMode::kSimd),
              ::testing::ExitedWithCode(2),
              "invalid FACTORML_KERNELS_BACKEND=avx512");
}

TEST(KernelsBackendTest, ValidOverridesSelectWithoutExit) {
  SavedBackendEnv saved;
  for (const char* v : {"scalar", "portable", "native"}) {
    setenv("FACTORML_KERNELS_BACKEND", v, /*overwrite=*/1);
    la::SelectKernels(la::KernelMode::kSimd);  // must not exit
  }
  // Empty string behaves like unset: native pick.
  setenv("FACTORML_KERNELS_BACKEND", "", /*overwrite=*/1);
  la::SelectKernels(la::KernelMode::kSimd);
  la::SelectKernels(la::KernelMode::kScalar);
}

TEST(FlagsDeathTest, TraceBufferKbNonIntegerExits2) {
  const char* argv[] = {"prog", "--trace-buffer-kb=abc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetTraceBufferKb(), ::testing::ExitedWithCode(2),
              "invalid --trace-buffer-kb");
}

TEST(FlagsDeathTest, MalformedDoubleExits2) {
  // Like GetInt: empty, unparsable, trailing bytes and out-of-range
  // values exit 2 naming the flag; so do inf and nan, which no double
  // flag accepts.
  for (const char* arg : {"--l2=", "--l2=abc", "--l2=0.5x", "--l2=1e999",
                          "--l2=inf", "--l2=nan"}) {
    const char* argv[] = {"prog", arg};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.GetDouble("l2", 1.0), ::testing::ExitedWithCode(2),
                "invalid --l2=")
        << arg;
  }
  const char* argv[] = {"prog", "--l2=-2.5e-3"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetDouble("l2", 1.0), -2.5e-3);
  EXPECT_EQ(args.GetDouble("tol", 0.25), 0.25);
}

TEST(FlagsTest, IntListParsing) {
  const char* argv[] = {"prog", "--rr=50,100,500"};
  ArgParser args(2, const_cast<char**>(argv));
  const auto v = args.GetIntList("rr", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 50);
  EXPECT_EQ(v[2], 500);
  const auto dflt = args.GetIntList("other", {1, 2});
  EXPECT_EQ(dflt.size(), 2u);
}

// GetInt historically ran strtoll with no end-pointer/errno check, so
// `--iters=abc` silently trained for 0 iterations. It now fails fast
// like every validated getter, naming the flag and the bad value.
TEST(FlagsDeathTest, GetIntNonIntegerExits2) {
  const char* argv[] = {"prog", "--iters=abc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetInt("iters", 10), ::testing::ExitedWithCode(2),
              "invalid --iters=abc");
}

TEST(FlagsDeathTest, GetIntTrailingGarbageExits2) {
  const char* argv[] = {"prog", "--k=5x"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetInt("k", 3), ::testing::ExitedWithCode(2),
              "invalid --k=5x");
}

TEST(FlagsDeathTest, GetIntOutOfRangeExits2) {
  const char* argv[] = {"prog", "--n=99999999999999999999999999"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "invalid --n=");
}

TEST(FlagsDeathTest, GetIntListBadItemExits2) {
  const char* argv[] = {"prog", "--rr=50,abc,500"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetIntList("rr", {}), ::testing::ExitedWithCode(2),
              "'abc' is not an integer");
}

TEST(FlagsTest, PositiveIntListParsing) {
  const char* argv[] = {"prog", "--nr=1000,100"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetPositiveIntList("nr", {}),
            (std::vector<int64_t>{1000, 100}));
  EXPECT_EQ(args.GetPositiveIntList("dr", {15}), (std::vector<int64_t>{15}));
}

// `generate --dr=5,-1` used to cast -1 to a huge column count and fail
// deep in the page layout; every entry is now checked up front.
TEST(FlagsDeathTest, GetPositiveIntListNonPositiveEntryExits2) {
  for (const char* arg : {"--dr=5,-1", "--dr=0", "--dr=5,x"}) {
    const char* argv[] = {"prog", arg};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.GetPositiveIntList("dr", {}),
                ::testing::ExitedWithCode(2), "invalid --dr=.*>= 1")
        << arg;
  }
}

TEST(FlagsTest, GetIntNegativeStillParses) {
  const char* argv[] = {"prog", "--delta=-7"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("delta", 0), -7);
}

TEST(FlagsTest, ShardBackendFlagsValidAndDefaults) {
  const char* argv[] = {"prog", "--shard-backend=process",
                        "--shard-timeout-ms=500"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetShardBackend(), "process");
  EXPECT_EQ(args.GetShardTimeoutMs(), 500);
  const char* argv2[] = {"prog"};
  ArgParser args2(1, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetShardBackend(), "inproc");
  EXPECT_EQ(args2.GetShardTimeoutMs(), 30000);
}

TEST(FlagsDeathTest, UnknownShardBackendExits2) {
  const char* argv[] = {"prog", "--shard-backend=grpc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetShardBackend(), ::testing::ExitedWithCode(2),
              "invalid --shard-backend=grpc");
}

TEST(FlagsDeathTest, ShardTimeoutBelowOneExits2) {
  const char* argv[] = {"prog", "--shard-timeout-ms=0"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetShardTimeoutMs(), ::testing::ExitedWithCode(2),
              "invalid --shard-timeout-ms");
}

TEST(FlagsTest, CheckpointFlagsValidAndDefaults) {
  const std::string dir = ::testing::TempDir();
  const std::string dir_arg = "--checkpoint-dir=" + dir;
  const char* argv[] = {"prog", dir_arg.c_str(), "--checkpoint-every=3"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetCheckpointDir(), dir);
  EXPECT_EQ(args.GetCheckpointEvery(), 3);
  const char* argv2[] = {"prog"};
  ArgParser args2(1, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetCheckpointDir(), "");
  EXPECT_EQ(args2.GetCheckpointEvery(), 0);
}

// The one parse point of the strategy knobs: every flag lands in its
// field, and an absent flag keeps the caller's default.
TEST(FlagsTest, StrategyOptionsFromArgsMapsEveryFlag) {
  using core::pipeline::ShardBackend;
  using core::pipeline::StrategyOptions;
  using core::pipeline::StrategyOptionsFromArgs;
  const std::string dir = ::testing::TempDir();
  const std::string dir_arg = "--checkpoint-dir=" + dir;
  const char* argv[] = {"prog",
                        "--batch=512",
                        "--threads=3",
                        "--morsel-rows=200",
                        "--steal=on",
                        "--prefetch=on",
                        "--prefetch-depth=4",
                        "--shards=5",
                        "--kernels=simd",
                        "--shard-backend=process",
                        "--shard-timeout-ms=700",
                        "--factormld=/opt/bin/factormld",
                        dir_arg.c_str(),
                        "--checkpoint-every=6"};
  ArgParser args(14, const_cast<char**>(argv));
  StrategyOptions defaults;
  defaults.temp_dir = "/data";
  const StrategyOptions o = StrategyOptionsFromArgs(args, defaults);
  EXPECT_EQ(o.batch_rows, 512u);
  EXPECT_EQ(o.threads, 3);
  EXPECT_EQ(o.morsel_rows, 200);
  EXPECT_TRUE(o.steal);
  EXPECT_TRUE(o.prefetch);
  EXPECT_EQ(o.prefetch_depth, 4);
  EXPECT_EQ(o.shards, 5);
  EXPECT_EQ(o.kernels, la::KernelMode::kSimd);
  EXPECT_EQ(o.temp_dir, "/data");  // no flag: the caller's value
  EXPECT_EQ(o.shard_backend, ShardBackend::kProcess);
  EXPECT_EQ(o.shard_timeout_ms, 700);
  EXPECT_EQ(o.shard_worker_path, "/opt/bin/factormld");
  EXPECT_EQ(o.checkpoint_dir, dir);
  EXPECT_EQ(o.checkpoint_every, 6);
  EXPECT_EQ(o.shard_channel, nullptr);

  // No flags: every field keeps its default, including a family's own
  // (NN's 1024-row batch).
  const char* argv2[] = {"prog"};
  ArgParser args2(1, const_cast<char**>(argv2));
  defaults.batch_rows = 1024;
  const StrategyOptions d = StrategyOptionsFromArgs(args2, defaults);
  const StrategyOptions plain;
  EXPECT_EQ(d.batch_rows, 1024u);
  EXPECT_EQ(d.threads, plain.threads);
  EXPECT_EQ(d.morsel_rows, plain.morsel_rows);
  EXPECT_EQ(d.steal, plain.steal);
  EXPECT_EQ(d.prefetch, plain.prefetch);
  EXPECT_EQ(d.prefetch_depth, plain.prefetch_depth);
  EXPECT_EQ(d.shards, plain.shards);
  EXPECT_EQ(d.kernels, la::KernelMode::kScalar);
  EXPECT_EQ(d.temp_dir, "/data");
  EXPECT_EQ(d.shard_backend, ShardBackend::kInproc);
  EXPECT_EQ(d.shard_timeout_ms, plain.shard_timeout_ms);
  EXPECT_EQ(d.shard_worker_path, "");
  EXPECT_EQ(d.checkpoint_dir, "");
  EXPECT_EQ(d.checkpoint_every, 0);
}

// Counts and sizes are cast to size_t after parsing: a value below 1
// exits 2 naming the flag instead of wrapping to a huge size or aborting
// deep inside the run (--batch=0 tripped Table's batch check, --batch=-1
// and --k=-3 threw std::length_error, GMM --k=0 aborted in Init).
TEST(FlagsDeathTest, BatchBelowOneExits2) {
  for (const char* flag : {"--batch=0", "--batch=-1"}) {
    const char* argv[] = {"prog", flag};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(core::pipeline::StrategyOptionsFromArgs(
                    args, core::pipeline::StrategyOptions{}),
                ::testing::ExitedWithCode(2), std::string("invalid ") + flag);
  }
}

// Every full pass runs the chunk plan, so no value of --morsel-rows can
// name another partition: < 1 exits 2, and the message points at the
// unset default instead.
TEST(FlagsDeathTest, MorselRowsBelowOneExits2) {
  for (const char* flag : {"--morsel-rows=0", "--morsel-rows=-1"}) {
    const char* argv[] = {"prog", flag};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.GetMorselRows(), ::testing::ExitedWithCode(2),
                std::string("invalid ") + flag +
                    ".*leave the flag unset for 4096-row chunks");
  }
}

TEST(FlagsDeathTest, KBelowOneExits2) {
  for (const char* flag : {"--k=0", "--k=-3"}) {
    const char* argv[] = {"prog", flag};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.GetPositiveInt("k", 5), ::testing::ExitedWithCode(2),
                std::string("invalid ") + flag);
  }
}

TEST(FlagsDeathTest, NhBelowOneExits2) {
  const char* argv[] = {"prog", "--nh=0"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetPositiveInt("nh", 50), ::testing::ExitedWithCode(2),
              "invalid --nh=0");
  const char* argv2[] = {"prog"};
  ArgParser args2(1, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetPositiveInt("nh", 50), 50);
}

// Iteration counts land in an int, so a value outside [1, INT_MAX] must
// exit naming the flag, not be narrowed (4294967297 would become 1) or
// surface later as a model error.
TEST(FlagsDeathTest, IterationsOutsideIntRangeExit2) {
  for (const char* flag :
       {"--iters=0", "--iters=2147483648", "--iters=4294967297"}) {
    const char* argv[] = {"prog", flag};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.GetIterations("iters", 10), ::testing::ExitedWithCode(2),
                std::string("invalid ") + flag);
  }
  const char* argv[] = {"prog", "--epochs=2147483647"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetIterations("epochs", 10), 2147483647);
  EXPECT_EQ(args.GetIterations("iters", 10), 10);
}

// The checkpoint flags fail fast (exit 2 naming flag and value) before a
// long run discovers at its first write that the directory is unusable
// or the interval nonsense.

TEST(FlagsDeathTest, UnwritableCheckpointDirExits2) {
  const char* argv[] = {"prog", "--checkpoint-dir=/nonexistent_dir_xyz_42"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetCheckpointDir(), ::testing::ExitedWithCode(2),
              "invalid --checkpoint-dir=/nonexistent_dir_xyz_42");
}

TEST(FlagsDeathTest, CheckpointEveryWithoutDirExits2) {
  const char* argv[] = {"prog", "--checkpoint-every=2"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetCheckpointEvery(), ::testing::ExitedWithCode(2),
              "invalid --checkpoint-every=2 \\(requires --checkpoint-dir");
}

TEST(FlagsDeathTest, CheckpointEveryBelowOneExits2) {
  const std::string dir_arg = "--checkpoint-dir=" + ::testing::TempDir();
  const char* argv[] = {"prog", dir_arg.c_str(), "--checkpoint-every=0"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetCheckpointEvery(), ::testing::ExitedWithCode(2),
              "invalid --checkpoint-every=0");
}

// -------------------------------------------------------------- OpCount

TEST(OpCountTest, CountersAccumulateAndDiff) {
  ResetGlobalOps();
  CountMults(10);
  CountAdds(5);
  const OpCounters snap = GlobalOps();
  CountMults(7);
  CountSubs(2);
  const OpCounters delta = GlobalOps() - snap;
  EXPECT_EQ(delta.mults, 7u);
  EXPECT_EQ(delta.subs, 2u);
  EXPECT_EQ(delta.adds, 0u);
  EXPECT_EQ(GlobalOps().mults, 17u);
}

TEST(OpCountTest, TotalAndToString) {
  OpCounters c{1, 2, 3, 4};
  EXPECT_EQ(c.Total(), 10u);
  EXPECT_NE(c.ToString().find("mults=1"), std::string::npos);
}

// ------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch w;
  const double t1 = w.ElapsedSeconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  const double t2 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.Restart();
  EXPECT_LE(w.ElapsedSeconds(), t2 + 1.0);
}

}  // namespace
}  // namespace factorml
