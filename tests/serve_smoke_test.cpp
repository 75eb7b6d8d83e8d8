// End-to-end service smoke (the `serve_smoke` ctest target): spawn the real
// rippled daemon binary, drive it with real ripple-client processes over a
// temp Unix socket, and assert the service path is byte-identical to an
// in-process CampaignPipeline::run of the same request — including a
// concurrent two-client submission deduped onto one execution — that the
// daemon rejects the shared pipeline flags it would ignore, and that the
// client rejects a bad --mode or an over-wide --top-n/--depth before it
// connects. Binary paths
// arrive via $RIPPLED_BIN / $RIPPLE_CLIENT_BIN (set by tests/CMakeLists.txt
// from the build's target files). Workload scaled down under RIPPLE_SANITIZED
// so the TSan build stays in the seconds range.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "pipeline/artifact.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/request.hpp"
#include "util/serialize.hpp"
#include "util/socket.hpp"

namespace ripple::serve {
namespace {

#if defined(RIPPLE_SANITIZED)
constexpr std::size_t kRunCycles = 100;
constexpr std::size_t kSample = 12;
constexpr std::size_t kShardSize = 4; // 3 shards
#else
constexpr std::size_t kRunCycles = 200;
constexpr std::size_t kSample = 24;
constexpr std::size_t kShardSize = 6; // 4 shards
#endif

struct TempDir {
  std::filesystem::path path;

  TempDir() {
    const auto base = std::filesystem::temp_directory_path();
    for (int i = 0;; ++i) {
      auto candidate = base / ("ripple_serve_smoke_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(i));
      if (std::filesystem::create_directories(candidate)) {
        path = std::move(candidate);
        return;
      }
    }
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string required_env(const char* name) {
  const char* value = std::getenv(name);
  EXPECT_NE(value, nullptr) << name << " must point at the built binary "
                            << "(set by tests/CMakeLists.txt)";
  return value == nullptr ? std::string() : std::string(value);
}

pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    ::_exit(127); // exec failed
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -WTERMSIG(status);
}

/// Block until the daemon's socket accepts connections (it binds on
/// startup, after loading nothing — this is fast, but TSan is not).
bool wait_for_socket(const std::string& path, int max_ms = 30000) {
  for (int waited = 0; waited < max_ms; waited += 50) {
    try {
      Socket probe = Socket::connect_unix(path);
      return true;
    } catch (const std::exception&) {
      ::usleep(50 * 1000);
    }
  }
  return false;
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ServeSmoke, RealDaemonMatchesInProcessRunByteForByte) {
  const std::string rippled = required_env("RIPPLED_BIN");
  const std::string client = required_env("RIPPLE_CLIENT_BIN");
  if (rippled.empty() || client.empty()) GTEST_SKIP();

  TempDir dir;
  const std::string socket = (dir.path / "d.sock").string();
  const std::string cache = (dir.path / "cache").string();
  const std::string result1 = (dir.path / "r1.bin").string();
  const std::string result2 = (dir.path / "r2.bin").string();
  const std::string result3 = (dir.path / "r3.bin").string();

  const pid_t daemon = spawn({rippled, "--socket=" + socket,
                              "--cache-dir=" + cache, "--threads=2"});
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_for_socket(socket)) << "rippled never bound " << socket;

  const auto client_argv = [&](const std::string& out) {
    return std::vector<std::string>{
        client,
        "--socket=" + socket,
        "--run-cycles=" + std::to_string(kRunCycles),
        "--sample=" + std::to_string(kSample),
        "--shard-size=" + std::to_string(kShardSize),
        "--result-out=" + out,
    };
  };

  // One client end to end.
  EXPECT_EQ(wait_exit(spawn(client_argv(result1))), 0);

  // Two concurrent clients with the identical request: the daemon dedupes
  // them onto one execution (which itself replays the first run's shard
  // checkpoints) — both must exit cleanly with byte-identical results.
  const pid_t a = spawn(client_argv(result2));
  const pid_t b = spawn(client_argv(result3));
  EXPECT_EQ(wait_exit(a), 0);
  EXPECT_EQ(wait_exit(b), 0);

  ::kill(daemon, SIGTERM);
  EXPECT_EQ(wait_exit(daemon), 0);

  const std::vector<std::uint8_t> bytes1 = read_file(result1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(read_file(result2), bytes1);
  EXPECT_EQ(read_file(result3), bytes1);

  // The oracle: the same request executed in-process, no daemon involved.
  pipeline::CampaignRequest request;
  request.core = "avr";
  request.config.run_cycles = kRunCycles;
  request.config.sample = kSample;
  request.config.shard_size = kShardSize;
  pipeline::PipelineConfig config;
  config.cache_dir = dir.path / "refcache";
  config.threads = 2;
  pipeline::CampaignPipeline pipe(config);
  ByteWriter w;
  pipeline::write_campaign_result(w, pipe.run(request));
  EXPECT_EQ(bytes1, w.take());
}

TEST(ServeSmoke, DaemonRejectsFlagsItWouldIgnore) {
  const std::string rippled = required_env("RIPPLED_BIN");
  if (rippled.empty()) GTEST_SKIP();

  // The campaign shape (depth, cycles, ...) arrives with each request, so
  // the daemon registers no such flag: passing one is a usage error (exit
  // 2) before anything binds, not a silently dropped setting.
  TempDir dir;
  const std::string socket = (dir.path / "d.sock").string();
  EXPECT_EQ(wait_exit(spawn({rippled, "--socket=" + socket, "--depth=3"})),
            2);
  EXPECT_FALSE(std::filesystem::exists(socket));
}

TEST(ServeSmoke, ClientRejectsBadValuesBeforeConnecting) {
  const std::string client = required_env("RIPPLE_CLIENT_BIN");
  if (client.empty()) GTEST_SKIP();

  // No daemon listens on the socket: a value the client accepts reaches the
  // connect and fails there (exit 1); a bad one is a usage error (exit 2)
  // before it. --top-n and --depth travel as 32-bit fields.
  TempDir dir;
  const std::string socket = "--socket=" + (dir.path / "none.sock").string();
  const auto exit_of = [&](const std::string& arg) {
    return wait_exit(spawn({client, socket, arg}));
  };
  EXPECT_EQ(exit_of("--mode=bogus"), 2);
  EXPECT_EQ(exit_of("--top-n=4294967297"), 2);
  EXPECT_EQ(exit_of("--depth=4294967296"), 2);
  EXPECT_EQ(exit_of("--mode=pruned"), 1);
  EXPECT_EQ(exit_of("--top-n=4294967295"), 1);
  EXPECT_EQ(exit_of("--depth=4294967295"), 1);
}

} // namespace
} // namespace ripple::serve
