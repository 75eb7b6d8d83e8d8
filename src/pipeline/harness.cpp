#include "pipeline/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace ripple::pipeline {

bool Exporter::open(const std::string& tool, const PipelineOptions& opts) {
  tool_ = tool;
  const auto open_file = [&](std::ofstream& out, const std::string& path,
                             const char* what) {
    out.open(path);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s file '%s'\n",
                   tool.c_str(), what, path.c_str());
    }
    return static_cast<bool>(out);
  };
  report_json_ = opts.report_json();
  const std::string report_file = opts.report_file();
  if (!report_file.empty() &&
      !open_file(report_file_, report_file, "report")) {
    return false;
  }
  if (!opts.trace_out.empty()) {
    if (!open_file(trace_file_, opts.trace_out, "trace")) return false;
    recorder_ = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::install(recorder_.get());
  }
  return true;
}

bool Exporter::write_trace() {
  if (recorder_ == nullptr) return true;
  recorder_->write_chrome_json(trace_file_);
  return flushed(trace_file_, "trace");
}

bool Exporter::write_report(JsonReportObserver& report,
                            const ArtifactCache* cache) {
  if (!report_json_) return true;
  if (cache != nullptr) report.add_cache_counters(*cache);
  const bool to_file = report_file_.is_open();
  report.write(to_file ? report_file_ : std::cerr, tool_);
  return !to_file || flushed(report_file_, "report");
}

bool Exporter::flushed(std::ofstream& out, const char* what) const {
  if (out.flush()) return true;
  std::fprintf(stderr, "%s: writing the %s file failed\n", tool_.c_str(),
               what);
  return false;
}

Harness::Harness(int argc, char** argv, std::string program,
                 std::string description, unsigned flags,
                 const std::function<void(OptionParser&)>& extra) {
  OptionParser parser(program, std::move(description));
  register_pipeline_options(parser, opts_, flags | kCache);
  if (extra) extra(parser);
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::Ok:
      break;
    case OptionParser::Result::Help:
      std::exit(0);
    case OptionParser::Result::Error:
      std::exit(2);
  }
  if (!exporter_.open(program, opts_)) std::exit(2);
  pipe_.emplace(opts_.config());
  pipe_->add_observer(std::make_shared<ProgressObserver>());
  if (opts_.report_json()) {
    report_ = std::make_shared<JsonReportObserver>();
    pipe_->add_observer(report_);
  }
}

Harness::~Harness() {
  // A failed write is reported on stderr; main has already chosen the exit
  // code.
  exporter_.write_trace();
  if (report_ != nullptr) exporter_.write_report(*report_, &pipe_->cache());
}

CoreSetup Harness::setup(CoreKind kind, std::size_t default_cycles) {
  return pipe_->setup({kind, cycles_or(default_cycles)});
}

void Harness::emit(const TablePrinter& table) const {
  if (opts_.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

} // namespace ripple::pipeline
