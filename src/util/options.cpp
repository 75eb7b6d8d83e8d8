#include "util/options.hpp"

#include <cstdio>
#include <iostream>

#include "util/strings.hpp"

namespace ripple {

OptionParser::OptionParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void OptionParser::add_flag(std::string name, std::string help, bool* out) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help);
  o.kind = ValueKind::Flag;
  o.flag_out = out;
  options_.push_back(std::move(o));
}

void OptionParser::add_value(std::string name, std::string help,
                             std::string* out, Check check) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help);
  o.kind = ValueKind::String;
  o.string_out = out;
  o.check = std::move(check);
  options_.push_back(std::move(o));
}

void OptionParser::add_value(std::string name, std::string help,
                             std::size_t* out, Check check) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help);
  o.kind = ValueKind::Size;
  o.size_out = out;
  o.check = std::move(check);
  options_.push_back(std::move(o));
}

void OptionParser::set_positional(std::string name, std::string help,
                                  std::vector<std::string>* out) {
  positional_name_ = std::move(name);
  positional_help_ = std::move(help);
  positional_out_ = out;
}

bool OptionParser::apply(Option& opt, std::string_view value) {
  switch (opt.kind) {
    case ValueKind::Flag:
      *opt.flag_out = true;
      return true;
    case ValueKind::String:
      *opt.string_out = std::string(value);
      return true;
    case ValueKind::Size: {
      const auto parsed = parse_int(value);
      if (!parsed || *parsed < 0) {
        std::cerr << program_ << ": --" << opt.name
                  << " expects a non-negative integer, got '" << value
                  << "'\n";
        return false;
      }
      *opt.size_out = static_cast<std::size_t>(*parsed);
      return true;
    }
  }
  return false;
}

OptionParser::Result OptionParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return Result::Help;
    }
    if (!arg.starts_with("--")) {
      if (positional_out_ == nullptr) {
        std::cerr << program_ << ": unexpected argument '" << arg
                  << "' (see --help)\n";
        return Result::Error;
      }
      positional_out_->emplace_back(arg);
      continue;
    }

    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? body : body.substr(0, eq);

    Option* match = nullptr;
    for (Option& o : options_) {
      if (o.name == name) {
        match = &o;
        break;
      }
    }
    if (match == nullptr) {
      std::cerr << program_ << ": unknown option '--" << name
                << "' (see --help)\n";
      return Result::Error;
    }

    std::string_view value;
    if (eq != std::string_view::npos) {
      if (match->kind == ValueKind::Flag) {
        std::cerr << program_ << ": --" << match->name
                  << " does not take a value\n";
        return Result::Error;
      }
      value = body.substr(eq + 1);
    } else if (match->kind != ValueKind::Flag) {
      if (i + 1 >= argc) {
        std::cerr << program_ << ": --" << match->name << " needs a value\n";
        return Result::Error;
      }
      value = argv[++i];
    }
    if (!apply(*match, value)) return Result::Error;
    if (match->check && !match->check(value)) {
      std::cerr << program_ << ": invalid value '" << value << "' for --"
                << match->name << " (see --help)\n";
      return Result::Error;
    }
  }
  return Result::Ok;
}

void OptionParser::print_usage(std::ostream& os) const {
  os << "usage: " << program_ << " [options]";
  if (positional_out_ != nullptr) os << " [" << positional_name_ << "...]";
  os << "\n";
  if (!description_.empty()) os << "\n" << description_ << "\n";
  os << "\noptions:\n";
  for (const Option& o : options_) {
    std::string left = "  --" + o.name;
    if (o.kind != ValueKind::Flag) left += "=<value>";
    os << left;
    if (left.size() < 26) os << std::string(26 - left.size(), ' ');
    else os << "\n" << std::string(26, ' ');
    os << o.help << "\n";
  }
  if (positional_out_ != nullptr && !positional_help_.empty()) {
    os << "\n" << positional_name_ << ": " << positional_help_ << "\n";
  }
  os << "  --help                  show this help\n";
}

} // namespace ripple
