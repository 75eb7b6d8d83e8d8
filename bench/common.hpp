// Shared harness for the benchmark binaries, built on the campaign pipeline
// (src/pipeline): option parsing (--csv, --cache-dir, --threads, --depth,
// --cycles, --no-cache, --report=json), stage observers for progress output
// and the JSON report, and the spec-driven core setup.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mate/search.hpp"
#include "obs/trace.hpp"
#include "pipeline/options.hpp"
#include "util/assert.hpp"
#include "pipeline/pipeline.hpp"
#include "util/table.hpp"

namespace ripple::bench {

/// The paper's trace length (Tables 2 and 3: "Both programs ran for 8500
/// clock cycles").
inline constexpr std::size_t kTraceCycles = pipeline::kDefaultTraceCycles;

using pipeline::CoreKind;
using pipeline::CoreSetup;

/// Per-binary pipeline harness. Parses the shared command line (exits on
/// --help, and with 2 on a bad flag or flag value), wires the stderr
/// progress observer plus — with --report=json — the JSON report observer
/// into a CampaignPipeline, and emits the report when the binary finishes.
class Harness {
public:
  /// `extra` registers binary-specific flags on the parser before parsing
  /// (e.g. hafi_campaign's --core and the campaign flag set).
  Harness(int argc, char** argv, std::string program, std::string description,
          const std::function<void(OptionParser&)>& extra = {})
      : program_(program),
        parser_(std::move(program), std::move(description)) {
    pipeline::register_pipeline_options(parser_, opts_);
    if (extra) extra(parser_);
    switch (parser_.parse(argc, argv)) {
      case OptionParser::Result::Ok:
        break;
      case OptionParser::Result::Help:
        std::exit(0);
      case OptionParser::Result::Error:
        std::exit(2);
    }
    pipe_.emplace(opts_.config());
    pipe_->add_observer(progress_observer_);
    if (opts_.report_json()) {
      report_ = std::make_shared<pipeline::JsonReportObserver>();
      pipe_->add_observer(report_);
    }
    if (!opts_.trace_out.empty()) {
      recorder_ = std::make_unique<obs::TraceRecorder>();
      obs::TraceRecorder::install(recorder_.get());
    }
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  ~Harness() {
    if (recorder_ != nullptr) {
      std::ofstream out(opts_.trace_out);
      if (out) {
        recorder_->write_chrome_json(out);
      } else {
        std::fprintf(stderr, "%s: cannot write trace file '%s'\n",
                     program_.c_str(), opts_.trace_out.c_str());
      }
    }
    if (!report_) return;
    const std::string file = opts_.report_file();
    if (file.empty()) {
      report_->write(std::cerr, program_, pipe_->cache());
    } else {
      std::ofstream out(file);
      if (!out) {
        std::fprintf(stderr, "%s: cannot write report file '%s'\n",
                     program_.c_str(), file.c_str());
        return;
      }
      report_->write(out, program_, pipe_->cache());
    }
  }

  [[nodiscard]] pipeline::CampaignPipeline& pipe() { return *pipe_; }
  [[nodiscard]] bool csv() const { return opts_.csv; }
  [[nodiscard]] const pipeline::PipelineOptions& options() const {
    return opts_;
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
                                std::size_t default_cycles = kTraceCycles) {
    pipeline::CoreSetupSpec spec;
    spec.kind = kind;
    spec.trace_cycles = cycles_or(default_cycles);
    return pipe_->setup(spec);
  }

  /// Bench narration, routed through the stage observers so it never
  /// interleaves with the table/CSV/JSON output on stdout.
  void progress(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[1024];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    pipe_->progress("%s", buf);
  }

  /// Emit a finished table on stdout (pretty or CSV per --csv).
  void emit(const TablePrinter& table) const {
    if (opts_.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }

private:
  std::string program_;
  OptionParser parser_;
  pipeline::PipelineOptions opts_;
  std::shared_ptr<pipeline::ProgressObserver> progress_observer_ =
      std::make_shared<pipeline::ProgressObserver>();
  std::shared_ptr<pipeline::JsonReportObserver> report_;
  std::optional<pipeline::CampaignPipeline> pipe_;
  /// --trace-out recorder; installed for the harness lifetime and exported
  /// in the destructor (its own dtor uninstalls).
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

} // namespace ripple::bench
