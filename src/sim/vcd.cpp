#include "sim/vcd.hpp"

#include <cctype>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/strings.hpp"

namespace ripple::sim {
namespace {

// VCD identifier codes use the printable ASCII range '!'..'~' (94 symbols).
std::string id_code(std::size_t index) {
  std::string code;
  do {
    code += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index > 0);
  return code;
}

} // namespace

void write_vcd(const Trace& trace, std::ostream& os,
               std::string_view module_name) {
  os << "$date\n  (ripple trace)\n$end\n";
  os << "$version\n  ripple vcd writer\n$end\n";
  os << "$timescale 1ns $end\n";
  os << "$scope module " << module_name << " $end\n";
  for (std::size_t i = 0; i < trace.num_wires(); ++i) {
    os << "$var wire 1 " << id_code(i) << ' ' << trace.wire_name(i)
       << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  for (std::size_t cycle = 0; cycle < trace.num_cycles(); ++cycle) {
    os << '#' << cycle << '\n';
    if (cycle == 0) os << "$dumpvars\n";
    const BitVec& now = trace.cycle_values(cycle);
    for (std::size_t i = 0; i < trace.num_wires(); ++i) {
      const bool v = now.get(i);
      if (cycle == 0 || v != trace.cycle_values(cycle - 1).get(i)) {
        os << (v ? '1' : '0') << id_code(i) << '\n';
      }
    }
    if (cycle == 0) os << "$end\n";
  }
}

std::string to_vcd(const Trace& trace, std::string_view module_name) {
  std::ostringstream os;
  write_vcd(trace, os, module_name);
  return os.str();
}

Trace parse_vcd(std::string_view text) {
  // --- header: collect variable definitions -------------------------------
  std::vector<std::string> names;
  std::unordered_map<std::string, std::size_t> index_by_code;
  std::vector<std::string> scope_stack;

  std::size_t pos = 0;
  const auto next_token = [&]() -> std::string_view {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    const std::size_t start = pos;
    while (pos < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    return text.substr(start, pos - start);
  };
  const auto skip_to_end_keyword = [&] {
    while (true) {
      const std::string_view tok = next_token();
      RIPPLE_CHECK(!tok.empty(), "unterminated VCD section");
      if (tok == "$end") return;
    }
  };

  bool in_definitions = true;
  while (in_definitions) {
    const std::string_view tok = next_token();
    RIPPLE_CHECK(!tok.empty(), "VCD ended before $enddefinitions");
    if (tok == "$scope") {
      next_token(); // scope kind (module/...)
      scope_stack.emplace_back(next_token());
      skip_to_end_keyword();
    } else if (tok == "$upscope") {
      RIPPLE_CHECK(!scope_stack.empty(), "unbalanced $upscope");
      scope_stack.pop_back();
      skip_to_end_keyword();
    } else if (tok == "$var") {
      next_token(); // var type
      const std::string_view width = next_token();
      RIPPLE_CHECK(width == "1", "only 1-bit VCD variables supported, got '",
                   std::string(width), "'");
      const std::string code(next_token());
      std::string name(next_token());
      // Optional bit-range token like "[3]" glued or separate; the writer
      // never emits one, but accept "name [3]" by merging.
      std::string_view maybe_range = next_token();
      if (maybe_range != "$end") {
        if (!maybe_range.empty() && maybe_range.front() == '[') {
          name += std::string(maybe_range);
          const std::string_view end_tok = next_token();
          RIPPLE_CHECK(end_tok == "$end", "malformed $var");
        } else {
          RIPPLE_CHECK(false, "malformed $var near '", name, "'");
        }
      }
      // Flatten sub-scopes (below the top module) into the name.
      std::string full;
      for (std::size_t i = 1; i < scope_stack.size(); ++i) {
        full += scope_stack[i] + ".";
      }
      full += name;
      if (!index_by_code.contains(code)) {
        index_by_code.emplace(code, names.size());
        names.push_back(full);
      }
    } else if (tok == "$enddefinitions") {
      skip_to_end_keyword();
      in_definitions = false;
    } else if (tok[0] == '$') {
      skip_to_end_keyword(); // $date, $version, $timescale, $comment, ...
    } else {
      RIPPLE_CHECK(false, "unexpected token '", std::string(tok),
                   "' in VCD header");
    }
  }

  // --- value changes -------------------------------------------------------
  Trace trace = make_trace_for_names(names);
  BitVec current(names.size());
  bool have_timestamp = false;

  const auto set_by_code = [&](std::string_view code, bool v) {
    const auto it = index_by_code.find(std::string(code));
    RIPPLE_CHECK(it != index_by_code.end(), "VCD change for undeclared id '",
                 std::string(code), "'");
    current.set(it->second, v);
  };

  while (true) {
    const std::string_view tok = next_token();
    if (tok.empty()) break;
    if (tok[0] == '#') {
      if (have_timestamp) trace.append_row(current);
      have_timestamp = true;
    } else if (tok == "$dumpvars" || tok == "$dumpall" || tok == "$dumpon" ||
               tok == "$dumpoff") {
      // Changes inside the dump block are handled like normal changes; the
      // closing $end token is skipped below.
    } else if (tok == "$end") {
      // end of a dump block
    } else if (tok[0] == '0' || tok[0] == '1' || tok[0] == 'x' ||
               tok[0] == 'X' || tok[0] == 'z' || tok[0] == 'Z') {
      RIPPLE_CHECK(tok.size() >= 2, "malformed scalar change '",
                   std::string(tok), "'");
      set_by_code(tok.substr(1), tok[0] == '1');
    } else if (tok[0] == 'b' || tok[0] == 'B') {
      const std::string_view value = tok.substr(1);
      RIPPLE_CHECK(value.size() == 1, "vector VCD changes unsupported");
      const std::string_view code = next_token();
      set_by_code(code, value[0] == '1');
    } else {
      RIPPLE_CHECK(false, "unexpected token '", std::string(tok),
                   "' in VCD body");
    }
  }
  if (have_timestamp) trace.append_row(current);

  return trace;
}

} // namespace ripple::sim
