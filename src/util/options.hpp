// Minimal command-line option parser shared by the bench, example and tool
// binaries.
//
// Supports long options only ("--name", "--name=value", "--name value"),
// a built-in "--help", and free positional arguments. Each binary registers
// the handful of flags it understands; the pipeline layer contributes the
// shared set (--csv, --cache-dir, --threads, --depth, --no-cache,
// --report=json) on top.
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ripple {

class OptionParser {
public:
  enum class Result {
    Ok,    // all arguments consumed
    Help,  // --help given; usage printed to stdout
    Error, // unknown/malformed/rejected argument; message printed to stderr
  };

  OptionParser(std::string program, std::string description);

  /// Boolean switch: present -> true.
  void add_flag(std::string name, std::string help, bool* out);

  /// Parse-time check of a value's text, run once the value has parsed:
  /// false makes parse() fail.
  using Check = std::function<bool(std::string_view)>;

  /// Valued options; "--name=V" and "--name V" both work.
  void add_value(std::string name, std::string help, std::string* out,
                 Check check = {});
  void add_value(std::string name, std::string help, std::size_t* out,
                 Check check = {});

  /// Collect non-option arguments (in order). Without this, positional
  /// arguments are an error.
  void set_positional(std::string name, std::string help,
                      std::vector<std::string>* out);

  [[nodiscard]] Result parse(int argc, char** argv);

  void print_usage(std::ostream& os) const;

private:
  enum class ValueKind { Flag, String, Size };

  struct Option {
    std::string name; // without the leading "--"
    std::string help;
    ValueKind kind = ValueKind::Flag;
    bool* flag_out = nullptr;
    std::string* string_out = nullptr;
    std::size_t* size_out = nullptr;
    Check check;
  };

  [[nodiscard]] bool apply(Option& opt, std::string_view value);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::string positional_name_;
  std::string positional_help_;
  std::vector<std::string>* positional_out_ = nullptr;
};

} // namespace ripple
