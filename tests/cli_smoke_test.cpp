// Command-line smoke (the `cli_smoke` ctest target): spawn real bench and
// example binaries and assert the one binary frame — every binary honours
// --report=json:FILE and --trace-out=FILE, and a shared flag the binary
// would ignore, an out-of-range value or an unwritable output path exits 2
// before any work (nothing on stdout, nothing in the cache); ablation A4
// runs end to end on short traces. Binary paths
// arrive via the environment (set by tests/CMakeLists.txt from the build's
// target files); a missing one fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;

  TempDir() {
    const auto base = fs::temp_directory_path();
    for (int i = 0;; ++i) {
      auto candidate = base / ("ripple_cli_smoke_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(i));
      if (fs::create_directories(candidate)) {
        path = std::move(candidate);
        return;
      }
    }
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Path of a built binary from the environment variable `name`.
std::string binary(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || !fs::exists(value)) {
    ADD_FAILURE() << name << " must point at the built binary (set by "
                  << "tests/CMakeLists.txt)";
    return {};
  }
  return value;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run `argv` in `dir` with stdout/stderr captured to dir/stdout and
/// dir/stderr; returns the exit status (-signal when killed).
int run(const fs::path& dir, const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const std::string out = (dir / "stdout").string();
  const std::string err = (dir / "stderr").string();
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (::chdir(dir.c_str()) != 0) ::_exit(126);
    const int o = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int e = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (o < 0 || e < 0) ::_exit(126);
    ::dup2(o, 1);
    ::dup2(e, 2);
    ::execv(cargv[0], cargv.data());
    ::_exit(127); // exec failed
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -WTERMSIG(status);
}

/// Every example writes the report envelope and the Chrome trace it was
/// asked for (at the parent they exited 0 and wrote neither file).
TEST(CliSmoke, ExamplesWriteReportAndTrace) {
  for (const char* var : {"QUICKSTART_BIN", "MATE_INSPECT_BIN"}) {
    const std::string bin = binary(var);
    ASSERT_FALSE(bin.empty());
    TempDir dir;
    ASSERT_EQ(run(dir.path, {bin, "--no-cache", "--report=json:r.json",
                             "--trace-out=t.json"}),
              0)
        << read_file(dir.path / "stderr");
    EXPECT_FALSE(read_file(dir.path / "stdout").empty());

    const std::string report = read_file(dir.path / "r.json");
    const std::string tool = fs::path(bin).filename().string();
    EXPECT_NE(report.find("\"tool\": \"" + tool + "\""), std::string::npos)
        << report;
    EXPECT_NE(report.find("\"version\": 2"), std::string::npos) << report;
    EXPECT_NE(report.find("\"stages\": [\n    {\"stage\": \"find_mates\""),
              std::string::npos)
        << report;

    const std::string trace = read_file(dir.path / "t.json");
    EXPECT_EQ(trace.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [",
                          0),
              0u)
        << trace;
    EXPECT_NE(trace.find("\"name\": \"stage:find_mates\""), std::string::npos)
        << trace;
  }
}

/// Ablation A4 runs end to end on short traces: one CSV row per budget k.
TEST(CliSmoke, MultiCycleAblationPrintsEveryBudget) {
  const std::string bin = binary("ABLATION_MULTICYCLE_BIN");
  ASSERT_FALSE(bin.empty());
  TempDir dir;
  ASSERT_EQ(run(dir.path, {bin, "--no-cache", "--csv", "--cycles=256"}), 0)
      << read_file(dir.path / "stderr");
  std::istringstream out(read_file(dir.path / "stdout"));
  std::string line;
  ASSERT_TRUE(std::getline(out, line));
  EXPECT_EQ(line, "k cycles,AVR FF,AVR FF w/o RF,MSP430 FF,MSP430 FF w/o RF");
  for (const char* k : {"1,", "2,", "4,", "8,", "16,"}) {
    ASSERT_TRUE(std::getline(out, line)) << "missing row k = " << k;
    EXPECT_EQ(line.rfind(k, 0), 0u) << line;
    EXPECT_EQ(std::count(line.begin(), line.end(), '%'), 4) << line;
  }
  ASSERT_TRUE(std::getline(out, line));
  EXPECT_EQ(line, "") << "exactly five k rows";
}

/// A flag the binary would ignore, an out-of-range value and an unwritable
/// output path are usage errors: exit 2 with nothing on stdout and nothing
/// in the cache.
TEST(CliSmoke, RejectsIgnoredFlagsAndBadOutputsBeforeAnyWork) {
  struct Case {
    const char* var;
    std::string arg;
  };
  const std::vector<Case> cases = {
      {"FIG1_EXAMPLE_BIN", "--csv"},
      {"HAFI_CAMPAIGN_BIN", "--cycles=1"},
      {"ABLATION_DEPTH_BIN", "--depth=3"},
      {"QUICKSTART_BIN", "--depth=4294967297"},
      {"QUICKSTART_BIN", "--report=json:missing/r.json"},
      {"QUICKSTART_BIN", "--trace-out=missing/t.json"},
      {"FIG1_EXAMPLE_BIN", "--report=json:missing/r.json"},
  };
  for (const Case& c : cases) {
    const std::string bin = binary(c.var);
    ASSERT_FALSE(bin.empty());
    TempDir dir;
    const fs::path cache = dir.path / "cache";
    EXPECT_EQ(run(dir.path, {bin, "--cache-dir=" + cache.string(), c.arg}), 2)
        << c.var << " " << c.arg;
    EXPECT_EQ(read_file(dir.path / "stdout"), "") << c.var << " " << c.arg;
    EXPECT_FALSE(fs::exists(cache)) << c.var << " " << c.arg;
  }
}

} // namespace
