// The one binary frame: every bench (but micro_ripple, on google-benchmark's
// parser) and every example runs through Harness, and Harness, rippled and
// ripple-client write their outputs through Exporter.
//
//   Harness h(argc, argv, "table2_avr", "Table 2: ...",
//             kThreads | kCsv | kDepth | kCycles | kTraceChunkCycles);
//   const CoreSetup avr = h.setup(CoreKind::Avr);
//   ...
//   h.emit(table);
//
// Harness parses the command line (--help exits 0, a bad flag or value
// exits 2 before any work), opens the --report/--trace-out outputs (a path
// that cannot be opened exits 2 too), runs a CampaignPipeline with the
// stderr progress observer and, with --report=json, the report observer,
// and writes the trace file and the report envelope when it goes out of
// scope.
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "pipeline/options.hpp"
#include "util/table.hpp"

namespace ripple::pipeline {

/// The one writer of a binary's --report envelope and --trace-out file.
class Exporter {
public:
  /// Open --report=json:FILE and --trace-out=FILE and install the span
  /// recorder. False, after a message on stderr, when a file cannot be
  /// opened: the caller exits 2 before any work.
  [[nodiscard]] bool open(const std::string& tool,
                          const PipelineOptions& opts);

  /// Span recorder behind --trace-out (null without it); installed
  /// process-wide until the Exporter is destroyed.
  [[nodiscard]] obs::TraceRecorder* recorder() const {
    return recorder_.get();
  }

  /// Write the recorded spans as Chrome trace-event JSON (no-op without
  /// --trace-out). False, after a message on stderr, when the file could
  /// not be written.
  bool write_trace();
  /// Write `report`'s envelope to the --report file or stderr (no-op
  /// without --report), folding in `cache`'s totals when given. False,
  /// after a message on stderr, when the file could not be written.
  bool write_report(JsonReportObserver& report,
                    const ArtifactCache* cache = nullptr);

private:
  bool flushed(std::ofstream& out, const char* what) const;

  std::string tool_;
  bool report_json_ = false;
  std::ofstream report_file_; // closed = the envelope goes to stderr
  std::unique_ptr<obs::TraceRecorder> recorder_;
  std::ofstream trace_file_;
};

class Harness {
public:
  /// `flags` names the shared flags this binary reads (--cache-dir and
  /// --no-cache are always registered: every pipeline binary runs a cached
  /// stage); `extra` registers binary-specific flags and positionals.
  Harness(int argc, char** argv, std::string program, std::string description,
          unsigned flags,
          const std::function<void(OptionParser&)>& extra = {});
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] CampaignPipeline& pipe() { return *pipe_; }
  /// The campaign flags named in `flags` (the rest keep their defaults).
  [[nodiscard]] const CampaignOptions& campaign() const {
    return opts_.campaign;
  }

  /// --cycles override, else the binary's default trace length.
  [[nodiscard]] std::size_t cycles_or(std::size_t default_cycles) const {
    return opts_.cycles != 0 ? opts_.cycles : default_cycles;
  }

  /// Default SearchParams with --depth/--threads applied.
  [[nodiscard]] mate::SearchParams params() const {
    return opts_.search_params();
  }

  /// build_core + record_trace for one core (cached traces).
  [[nodiscard]] CoreSetup setup(CoreKind kind,
                                std::size_t default_cycles =
                                    kDefaultTraceCycles);

  /// Emit a finished table on stdout (pretty or CSV per --csv).
  void emit(const TablePrinter& table) const;

private:
  PipelineOptions opts_;
  Exporter exporter_;
  std::shared_ptr<JsonReportObserver> report_; // null without --report
  std::optional<CampaignPipeline> pipe_;
};

} // namespace ripple::pipeline
