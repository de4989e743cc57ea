#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "hca/postprocess.hpp"
#include "hca/report.hpp"

/// Golden corpus of the hierarchical compile: one committed record per
/// (Table 1 kernel, N/M/K) cell under tests/golden/, holding everything a
/// search refactor must not move — legality and failure
/// reason, the fallback rung, digests of the assignment/relays/reconfig
/// stream and of the FinalMapping, the final MII, and every deterministic
/// HcaStats counter. The sweeps are reduced (target slack 1, two search
/// profiles; h264deblocking a single attempt before the fallback ladder)
/// and run at one thread.
///
/// Every cell runs under both failure policies against the same record:
/// the policy only decides whether a failure throws or comes back as a
/// report, never what is searched, so both must produce the same record.
///
/// On a mismatch the test prints the actual record between BEGIN/END
/// markers. An intended behaviour change is made by reviewing that output
/// and copying it over the record file; there is deliberately no switch
/// that rewrites the corpus.
///
/// Carries the ctest `tsan` label alongside parallel_test: the per-attempt
/// search pools and arenas must not leak state across portfolio threads.
namespace hca::core {
namespace {

constexpr const char* kKernelNames[] = {"fir2dim", "idcthor", "mpeg2inter",
                                        "h264deblocking"};

struct Nmk {
  int n, m, k;
};
constexpr Nmk kFabrics[] = {{8, 8, 8}, {8, 4, 4}, {4, 4, 2}, {2, 2, 2}};

/// The final DDG text (every node, operand, immediate and name), the
/// per-node CN and the inserted receives.
std::string mappingDigest(const FinalMapping& m) {
  std::ostringstream os;
  os << ddg::toText(m.finalDdg) << '|' << m.numOriginalNodes << '|';
  for (const CnId cn : m.cnOf) os << cn.value() << ',';
  os << '|';
  for (const auto& recv : m.recvs) {
    os << recv.recvNode.value() << ':' << recv.value.value() << ':'
       << recv.cn.value() << ':' << (recv.isRelay ? 1 : 0) << ',';
  }
  return fnv1a64Hex(os.str());
}

std::string oneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n') c = ' ';
  }
  return s;
}

/// (kernel, failure policy, fabric index).
using Param = std::tuple<int, FailurePolicy, int>;

/// "_N_M_K" of a cell.
std::string fabricSuffix(const Param& p) {
  const Nmk f = kFabrics[std::get<2>(p)];
  return "_" + std::to_string(f.n) + "_" + std::to_string(f.m) + "_" +
         std::to_string(f.k);
}

/// Record file name of a cell: kernel and N/M/K, shared by both policies.
std::string recordName(const Param& p) {
  return kKernelNames[std::get<0>(p)] + fabricSuffix(p);
}

/// Compiles one corpus cell and renders its record.
std::string compileRecord(const Param& p) {
  auto kernels = ddg::table1Kernels();
  const auto kernelIndex = static_cast<std::size_t>(std::get<0>(p));
  const auto& ddg = kernels[kernelIndex].ddg;
  machine::DspFabricConfig config;
  const Nmk f = kFabrics[std::get<2>(p)];
  config.n = f.n;
  config.m = f.m;
  config.k = f.k;
  const machine::DspFabricModel model(config);

  HcaOptions options;
  options.numThreads = 1;
  options.failurePolicy = std::get<1>(p);
  if (kernelIndex == 3) {
    // h264deblocking defeats the direct search at N=M=K=8; a minimal
    // sweep reaches the fallback ladder quickly and still runs SEE on
    // both the failing and the fallback attempts.
    options.targetIiSlack = 0;
    options.searchProfiles = 1;
  } else {
    options.targetIiSlack = 1;
    options.searchProfiles = 2;
  }
  const HcaResult result = HcaDriver(model, options).run(ddg);

  std::ostringstream os;
  os << "legal " << (result.legal ? 1 : 0) << '\n';
  os << "failureReason " << oneLine(result.failureReason) << '\n';
  os << "fallback "
     << (result.fallbackUsed.empty() ? "primary" : result.fallbackUsed)
     << '\n';
  os << "assignment " << assignmentDigest(result) << '\n';
  if (result.legal) {
    os << "mapping "
       << mappingDigest(buildFinalMapping(ddg, model, result)) << '\n';
    os << "finalMii " << computeMii(ddg, model, result).finalMii << '\n';
  } else {
    os << "mapping -\n";
    os << "finalMii -\n";
  }
  for (const auto& [name, value] : deterministicCounters(result.stats)) {
    os << "counter." << name << ' ' << value << '\n';
  }
  return os.str();
}

/// A missing record reads as empty, so a new corpus cell fails with its
/// actual record printed instead of an I/O error.
std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class GoldenTest : public ::testing::TestWithParam<Param> {};

TEST_P(GoldenTest, MatchesRecord) {
  const std::string name = recordName(GetParam());
  const std::string path =
      std::string(HCA_GOLDEN_DIR) + "/" + name + ".golden";
  const std::string actual = compileRecord(GetParam());
  const std::string expected = readFile(path);
  EXPECT_EQ(expected, actual)
      << "golden record " << path << " does not match; actual record:\n"
      << "----- BEGIN " << name << " -----\n"
      << actual << "----- END " << name << " -----";
}

/// Test name of a cell: kernel, policy and N/M/K.
std::string paramName(const ::testing::TestParamInfo<Param>& info) {
  const Param& p = info.param;
  return std::string(kKernelNames[std::get<0>(p)]) +
         (std::get<1>(p) == FailurePolicy::kStrict ? "_strict" : "_degrade") +
         fabricSuffix(p);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(FailurePolicy::kStrict,
                                         FailurePolicy::kDegrade),
                       ::testing::Range(0, 4)),
    paramName);

}  // namespace
}  // namespace hca::core
